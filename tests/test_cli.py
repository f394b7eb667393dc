import atexit
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsi import cli, fairness, oracle, search
from fdsi.cli import build_parser, main
from fdsi.fairness import Notion, Verdict, Witness, certify, check, is_sim
from fdsi.generators import CANNED, canned, gen_partition_ef1, gen_random
from fdsi.model import Allocation, ValidationError, exact_rational, make_instance
from fdsi.serialize import (
    allocation_from_obj,
    allocation_to_obj,
    instance_from_obj,
    instance_to_obj,
    load_allocation,
    load_instance,
    parse_notion_spec,
    save_instance,
)

from helpers import random_instances


@pytest.fixture(autouse=True)
def _heap_never_frozen():
    # main runs inside long-lived processes (these tests, perfbench's traced
    # replay, library callers), which would never collect what it froze
    before = gc.get_freeze_count()
    yield
    assert gc.get_freeze_count() == before


class TestSerialization:
    def test_round_trip_random(self):
        for inst in random_instances(40, 201, 1, 5, 0, 8, 6, 6, 3):
            assert instance_from_obj(instance_to_obj(inst)) == inst

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_allocation_round_trip(self, seed):
        rng = random.Random(seed)
        inst = gen_random(rng.randint(1, 4), rng.randint(0, 6), 5, 5, 2, seed=seed)
        from helpers import random_allocation

        alloc = random_allocation(inst, rng)
        assert allocation_from_obj(inst, allocation_to_obj(inst, alloc)) == alloc

    def test_unknown_instance_key_rejected(self):
        obj = instance_to_obj(canned("bill-joe").instance)
        obj["extra"] = 1
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_unknown_agent_key_rejected(self):
        obj = instance_to_obj(canned("bill-joe").instance)
        obj["agents"][0]["color"] = "red"
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_defaults_applied(self):
        obj = {
            "agents": [{"id": "x"}, {"id": "y"}],
            "items": ["g"],
            "valuations": [[1], [2]],
            "impacts": [[1], [1]],
        }
        inst = instance_from_obj(obj)
        assert inst.weights == (1, 1) and inst.aware == (True, True)

    def test_float_rejected(self):
        obj = instance_to_obj(canned("bill-joe").instance)
        obj["valuations"][0][0] = 1.5
        with pytest.raises(ValidationError):
            instance_from_obj(obj)

    def test_duplicate_item_in_allocation(self):
        inst = canned("bill-joe").instance
        with pytest.raises(ValidationError):
            allocation_from_obj(inst, {"bundles": {"bill": ["g1"], "joe": ["g1"]}})

    def test_missing_agent_means_empty(self):
        inst = canned("bill-joe").instance
        alloc = allocation_from_obj(inst, {"bundles": {"bill": ["g1", "g2"]}})
        assert alloc.bundles == (frozenset({0, 1}), frozenset())


class TestNotionSpecs:
    def test_plain_bases(self):
        assert parse_notion_spec("ef1") == Notion("ef1")
        assert parse_notion_spec("sa-empty") == Notion("sa-empty")

    def test_prefixes(self):
        assert parse_notion_spec("sa-ef1") == Notion("ef1", "sa")
        assert parse_notion_spec("wsa-efl") == Notion("efl", "wsa")

    def test_flags(self):
        assert parse_notion_spec("ef1", sa=True) == Notion("ef1", "sa")
        half = exact_rational("1/2", "rational")
        assert parse_notion_spec("swef1", alpha=half) == Notion("swef1", "alpha", half)

    def test_mutually_exclusive(self):
        with pytest.raises(ValidationError):
            parse_notion_spec("sa-ef1", wsa=True)
        with pytest.raises(ValidationError):
            parse_notion_spec("ef1", sa=True, wsa=True)

    def test_unknown_base(self):
        with pytest.raises(ValidationError):
            parse_notion_spec("efx")

    def test_rationals(self):
        assert exact_rational("1/2", "rational") == exact_rational("2/4", "rational")
        assert exact_rational("1", "rational") == 1
        with pytest.raises(ValidationError):
            exact_rational("0.5", "rational")

    @pytest.mark.parametrize("text", ["0.5", "1e-1", "1/2/3", "1/0", "", "x"])
    def test_one_rational_grammar(self, tmp_path, capsys, text):
        # the library and the command line accept the same strings: p or p/q
        message = f"bad alpha {text!r}: expected p or p/q"
        with pytest.raises(ValidationError) as exc:
            Notion("ef1", "alpha", text)
        assert str(exc.value) == message
        inst = tmp_path / "p.json"
        save_instance(gen_partition_ef1((1, 1, 2)), inst)
        assert main(["solve", str(inst), "ef1", "--alpha", text]) == 2
        assert capsys.readouterr().err == f"error: bad rational {text!r}: expected p or p/q\n"


class TestCommands:
    def _gen(self, tmp_path, name, alloc=False):
        inst_path = tmp_path / f"{name}.json"
        args = ["gen", "example", name, "-o", str(inst_path)]
        alloc_path = None
        if alloc:
            alloc_path = tmp_path / f"{name}-alloc.json"
            args += ["--allocation-out", str(alloc_path)]
        assert main(args) == 0
        return inst_path, alloc_path

    def test_check_exit_codes(self, tmp_path, capsys):
        inst, alloc = self._gen(tmp_path, "wsa-nonexistence", alloc=True)
        assert main(["check", str(inst), str(alloc), "sa-ef1"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict == {"sim": True, "fair": True, "witness": None}
        assert main(["check", str(inst), str(alloc), "wsa-ef1"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["sim"] is True and verdict["fair"] is False
        assert verdict["witness"]["observer"] == "a1"

    def test_check_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        inst, alloc = self._gen(tmp_path, "wsa-nonexistence", alloc=True)
        assert main(["check", str(bad), str(alloc), "ef1"]) == 2
        assert main(["check", str(inst), str(bad), "ef1"]) == 2

    def test_check_incomplete_allocation(self, tmp_path):
        inst, _ = self._gen(tmp_path, "wsa-nonexistence")
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"bundles": {"a1": ["g1"]}}))
        assert main(["check", str(inst), str(partial), "ef1"]) == 2

    def test_check_require_sim(self, tmp_path):
        inst, _ = self._gen(tmp_path, "bill-joe")
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"bundles": {"bill": ["g1"], "joe": ["g2"]}}))
        # the split is one-removal fair but not impact maximizing
        assert main(["check", str(inst), str(split), "ef1"]) == 0
        assert main(["check", str(inst), str(split), "ef1", "--require-sim"]) == 1

    def test_solve_exit_codes(self, tmp_path, capsys):
        ok = tmp_path / "ok.json"
        assert main(["gen", "partition-ef1", "--weights", "1,1,2", "-o", str(ok)]) == 0
        assert main(["solve", str(ok), "ef1", "--method", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"bundles"}
        none = tmp_path / "none.json"
        assert main(["gen", "partition-ef1", "--weights", "1,1,4", "-o", str(none)]) == 0
        assert main(["solve", str(none), "ef1", "--method", "exact"]) == 1
        assert (
            main(["solve", str(none), "ef1", "--method", "exact", "--state-budget", "3"])
            == 3
        )

    # mixed-awareness instance -> (valuations, impacts, aware)
    _MIXED = {
        "mixed-2": ([[1, 1], [9, 9]], [[2, 1], [1, 1]], (False, True)),
        "mixed-3": ([[1, 2], [3, 1], [2, 2]], [[1, 1], [1, 1], [1, 1]], (False, True, True)),
    }
    _ONES = (1, 1, 1)
    # binary valuations equal to the impacts, weighed (1, 2, 1): round robin
    # is not wef1 here, so the weighted picking run is told apart
    _BINARY = ((1, 0, 1, 1, 0, 1), (1, 1, 0, 1, 0, 0), (0, 1, 1, 1, 1, 1))
    # (instance, notion spec, the solvers auto runs in order; picking with
    # the weights it runs with).  Both candidates run whatever the awareness:
    # the envy graph under efl, then picking under every base but sa-empty,
    # each kept only once certified
    _ROUTES = [
        ("aware", ["sa-efl"], ["sa_efl_allocate"]),
        ("aware", ["sa-wef1"], [("sa_weighted_picking", (1, 2, 1))]),
        ("aware", ["sa-swef1"], [("sa_weighted_picking", (1, 2, 1))]),
        ("aware", ["sa-ef1"], [("sa_weighted_picking", _ONES)]),
        ("aware", ["sa-sef1"], [("sa_weighted_picking", _ONES)]),
        ("aware", ["sa-tef1"], [("sa_weighted_picking", _ONES)]),
        ("aware", ["sa-ef"], [("sa_weighted_picking", _ONES)]),
        ("mixed-2", ["sa-ef1"], [("sa_weighted_picking", (1, 1))]),
        ("mixed-3", ["sa-ef1"], [("sa_weighted_picking", _ONES)]),
        ("aware", ["ef1", "--alpha", "1/2"], [("sa_weighted_picking", _ONES)]),
        ("aware", ["wsa-ef1"], [("sa_weighted_picking", _ONES)]),
        ("alpha-nonexistence", ["ef1", "--alpha", "1/2"],
         [("sa_weighted_picking", (1, 1)), "brute_force_solve"]),
        ("wsa-nonexistence", ["wsa-ef1"], [("sa_weighted_picking", (1, 1)), "brute_force_solve"]),
        ("aware", ["sa-empty"], ["solve_sa_empty"]),
        ("aware", ["ef1"], [("sa_weighted_picking", _ONES)]),
        ("unaware", ["efl"], ["sa_efl_allocate", ("sa_weighted_picking", _ONES)]),
        ("unaware", ["wef1"], [("sa_weighted_picking", (1, 2, 1))]),
        ("unaware", ["ef"], [("sa_weighted_picking", _ONES), "exact_solve"]),
        ("binary", ["sef1"], [("sa_weighted_picking", _ONES)]),
        ("binary", ["wef1"], [("sa_weighted_picking", (1, 2, 1))]),
        ("binary", ["ef"], [("sa_weighted_picking", _ONES), "exact_solve"]),
        ("binary", ["ef1", "--alpha", "1/2"], [("sa_weighted_picking", _ONES)]),
        ("binary-aware", ["sa-efl"], ["sa_efl_allocate"]),
    ]

    def _record_solvers(self, monkeypatch) -> list:
        """Wrap every solver auto can run, on the module attributes that
        ``cli._solve_with`` reads, and return the list of runs."""
        from fdsi import allocators, sa_empty

        ran = []
        for module, name in (
            (allocators, "sa_weighted_picking"),
            (allocators, "sa_efl_allocate"),
            (search, "exact_solve"),
            (oracle, "brute_force_solve"),
            (sa_empty, "solve_sa_empty"),
        ):
            def solver(inst, *args, _real=getattr(module, name), _name=name, **kwargs):
                if _name == "sa_weighted_picking":
                    ran.append((_name, kwargs.get("weights") or inst.weights))
                else:
                    ran.append(_name)
                return _real(inst, *args, **kwargs)

            monkeypatch.setattr(module, name, solver)
        return ran

    def _route_instance(self, tmp_path, key):
        if key == "aware":
            # weights (1, 2, 1) tell picking's two weightings apart
            inst = gen_random(3, 6, 5, 5, 2, seed=10)
            assert inst.weights == (1, 2, 1) and all(inst.aware)
        elif key == "unaware":
            # the envy graph is not efl here, but picking is
            g = gen_random(3, 6, 5, 5, 2, seed=66)
            assert g.weights == (1, 2, 1)
            inst = make_instance(g.valuations, g.impacts, weights=g.weights, aware=(False,) * 3)
        elif key in CANNED:
            inst = canned(key).instance
        elif key.startswith("binary"):
            aware = (key == "binary-aware",) * 3
            inst = make_instance(self._BINARY, self._BINARY, weights=(1, 2, 1), aware=aware)
        else:
            valuations, impacts, aware = self._MIXED[key]
            inst = make_instance(valuations, impacts, aware=aware)
        path = tmp_path / f"{key}.json"
        save_instance(inst, path)
        return path

    def test_solve_auto_routes(self, tmp_path, monkeypatch, capsys):
        ran = self._record_solvers(monkeypatch)
        for key, spec, expected in self._ROUTES:
            path = self._route_instance(tmp_path, key)
            ran.clear()
            assert main(["solve", str(path), *spec]) in (0, 1)
            assert (key, spec, ran) == (key, spec, expected)
        capsys.readouterr()

    def test_solve_auto_rejected_candidate_runs_the_walk(self, tmp_path, monkeypatch, capsys):
        # with every candidate rejected, auto tries each row that applies and
        # then runs its final solver, whatever the awareness
        ran = self._record_solvers(monkeypatch)
        monkeypatch.setattr(cli, "certify", lambda inst, alloc, notion: Verdict(False))
        picking = ("sa_weighted_picking", self._ONES)
        for key, spec, expected in (
            ("aware", ["sa-ef1"], [picking, "exact_solve"]),
            ("aware", ["sa-efl"], ["sa_efl_allocate", picking, "exact_solve"]),
            ("mixed-2", ["sa-ef1"], [("sa_weighted_picking", (1, 1)), "exact_solve"]),
            ("binary", ["sef1"], [picking, "exact_solve"]),
            ("unaware", ["ef1"], [picking, "exact_solve"]),
            ("aware", ["wsa-ef1"], [picking, "brute_force_solve"]),
            ("aware", ["sa-empty"], ["solve_sa_empty"]),
        ):
            path = self._route_instance(tmp_path, key)
            ran.clear()
            assert main(["solve", str(path), *spec]) in (0, 1)
            assert (key, spec, ran) == (key, spec, expected)
        capsys.readouterr()

    def test_solve_auto_matches_exact_under_every_awareness(self, tmp_path, capsys):
        # seeded random instances, unaware, mixed and all aware in turn, every
        # other one with binary valuations equal to the impacts: auto's exit
        # code is the exact method's (the oracle's under alpha and wsa), and
        # every answer it prints is certified
        rng = random.Random(22)
        path = tmp_path / "r.json"
        half = exact_rational("1/2", "rational")
        for k in range(48):
            n, m = rng.randint(2, 4), rng.randint(0, 8)
            g = gen_random(n, m, 5, rng.randint(0, 2), 3, seed=k)
            values, impacts = g.valuations, g.impacts
            if k % 2:
                values = impacts = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            aware = [(False, i % 2 == 1, True)[k % 3] for i in range(n)]
            inst = make_instance(values, impacts, weights=g.weights, aware=aware)
            save_instance(inst, path)
            for base in fairness.BASES:
                for flags, method, notion in (
                    ([], "exact", Notion(base)),
                    (["--sa"], "exact", Notion(base, "sa")),
                    (["--alpha", "1/2"], "brute", Notion(base, "alpha", half)),
                    (["--wsa"], "brute", Notion(base, "wsa")),
                ):
                    spec = [str(path), base, *flags]
                    expected = main(["solve", *spec, "--method", method])
                    capsys.readouterr()
                    code = main(["solve", *spec])
                    assert (k, notion, code) == (k, notion, expected)
                    if code == 0:
                        alloc = allocation_from_obj(inst, json.loads(capsys.readouterr().out))
                        assert certify(inst, alloc, notion).fair, (k, notion)

    def test_solve_alpha_goes_to_brute(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, "alpha-nonexistence")
        assert main(["solve", str(inst), "ef1", "--alpha", "1/2"]) == 1
        assert main(["solve", str(inst), "ef1", "--alpha", "1/2", "--method", "exact"]) == 2

    def test_empty_alpha_exit_2(self, tmp_path, capsys):
        # an empty --alpha is a bad rational, never a plain or sa verdict
        inst, alloc = self._gen(tmp_path, "wsa-nonexistence", alloc=True)
        capsys.readouterr()
        for argv in (
            ["check", str(inst), str(alloc), "ef1", "--alpha", ""],
            ["check", str(inst), str(alloc), "ef1", "--alpha", "", "--sa"],
            ["solve", str(inst), "ef1", "--alpha", ""],
            ["gen", "example", "alpha-nonexistence", "--alpha", ""],
        ):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: bad rational '': expected p or p/q\n"

    def test_solve_method_must_certify_notion(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, "bill-joe")
        # the picking output cannot satisfy plain one-removal fairness here
        assert main(["solve", str(inst), "ef1", "--method", "picking"]) == 2
        assert main(["solve", str(inst), "sa-ef1", "--method", "picking"]) == 0
        capsys.readouterr()

    def test_solve_picking_weighs_agents_as_auto(self, tmp_path, capsys):
        # weights (3, 3, 1): picking weighs the agents only under a weighted
        # base, whichever route runs it
        path = tmp_path / "g1.json"
        argv = ["gen", "random", "--agents", "3", "--items", "8", "--v-max", "9",
                "--s-max", "0", "--w-max", "3", "--seed", "1", "-o", str(path)]
        assert main(argv) == 0
        assert load_instance(path).weights == (3, 3, 1)
        for spec in ("sa-ef1", "sa-sef1", "sa-tef1", "sa-wef1", "sa-swef1"):
            assert main(["solve", str(path), spec]) == 0
            auto = capsys.readouterr()
            assert main(["solve", str(path), spec, "--method", "picking"]) == 0
            assert (spec, capsys.readouterr()) == (spec, auto)

    def test_solve_auto_mixed_two_agents(self, tmp_path, capsys):
        # the first agent unaware, the second aware: auto prints picking's
        # answer once it certifies, which on 60 items is before the walk
        # would run out of 1,000 states
        path = tmp_path / "mixed.json"
        obj = {
            "agents": [
                {"id": "a1", "aware": False},
                {"id": "a2", "aware": True},
            ],
            "items": ["g1", "g2"],
            "valuations": [[1, 1], [9, 9]],
            "impacts": [[2, 1], [1, 1]],
        }
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path), "sa-ef1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bundles"] == {"a1": ["g1"], "a2": ["g2"]}
        g = gen_random(2, 60, 20, 0, 1, seed=1)
        inst = make_instance(g.valuations, g.impacts, aware=(False, True))
        save_instance(inst, path)
        budget = ["--state-budget", "1000"]
        assert main(["solve", str(path), "sa-ef1", *budget]) == 0
        alloc = allocation_from_obj(inst, json.loads(capsys.readouterr().out))
        assert certify(inst, alloc, Notion("ef1", "sa")).fair
        assert main(["solve", str(path), "sa-ef1", "--method", "exact", *budget]) == 3
        capsys.readouterr()

    def test_brute_counts(self, tmp_path, capsys):
        rand = tmp_path / "co.json"
        obj = {
            "agents": [{"id": "a"}, {"id": "b"}],
            "items": ["x", "y", "z"],
            "valuations": [[1, 1, 1], [1, 1, 1]],
            "impacts": [[1, 1, 1], [1, 1, 1]],
        }
        rand.write_text(json.dumps(obj))
        assert main(["brute", str(rand), "any", "--count"]) == 0
        assert json.loads(capsys.readouterr().out) == {"count": 8}
        forced = tmp_path / "forced.json"
        obj["impacts"] = [[2, 2, 2], [1, 1, 1]]
        forced.write_text(json.dumps(obj))
        assert main(["brute", str(forced), "any", "--count"]) == 0
        assert json.loads(capsys.readouterr().out) == {"count": 1}
        inst, _ = self._gen(tmp_path, "wsa-nonexistence")
        assert main(["brute", str(inst), "wsa-ef1"]) == 1
        assert main(["brute", str(inst), "sa-ef1"]) == 0
        capsys.readouterr()

    def test_brute_count_honours_no_require_sim(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        assert main(["gen", "random", "--agents", "2", "--items", "4", "--v-max", "5",
                     "--s-max", "3", "--seed", "3", "-o", str(q)]) == 0
        inst = gen_random(2, 4, 5, 3, 1, seed=3)
        counts = {}
        for extra in ([], ["--no-require-sim"]):
            for notion in ("ef1", "any"):
                assert main(["brute", str(q), notion, "--count", *extra]) == 0
                counts[notion, bool(extra)] = json.loads(capsys.readouterr().out)["count"]
        allocs = [Allocation.from_assignment(2, o) for o in product(range(2), repeat=4)]
        assert counts["any", True] == 16
        assert counts["any", False] == sum(is_sim(inst, a).fair for a in allocs)
        assert counts["ef1", True] == sum(check(inst, a, Notion("ef1")).fair for a in allocs)
        assert counts["ef1", False] == sum(
            is_sim(inst, a).fair and check(inst, a, Notion("ef1")).fair for a in allocs
        )
        assert counts["ef1", True] != counts["ef1", False]
        # the cap is checked against the count of the candidates scanned
        args = ["brute", str(q), "ef1", "--count", "--cap", "15"]
        assert main(args) == 0
        assert main([*args, "--no-require-sim"]) == 3
        assert main(["brute", str(q), "any", "--count", "--no-require-sim", "--cap", "15"]) == 3
        capsys.readouterr()

    def test_brute_cap_bounds_any(self, tmp_path, capsys):
        # 3**6 = 729 impact-maximizing allocations (every impact is 0)
        q = tmp_path / "q.json"
        assert main(["gen", "random", "--agents", "3", "--items", "6", "--v-max", "5",
                     "--s-max", "0", "--seed", "1", "-o", str(q)]) == 0
        capsys.readouterr()
        for extra in ([], ["--count"]):
            assert main(["brute", str(q), "any", *extra, "--cap", "1"]) == 3
            assert capsys.readouterr() == (
                "", "error: 729 impact-maximizing allocations exceed the cap of 1\n"
            )
            assert main(["brute", str(q), "any", *extra, "--cap", "729"]) == 0
            capsys.readouterr()

    def test_brute_any_honours_no_require_sim(self, tmp_path, capsys):
        # agent b maximizes every item, so the first of all n**m allocations
        # (everything to agent a) is not impact maximizing
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "agents": [{"id": "a"}, {"id": "b"}],
            "items": ["x", "y"],
            "valuations": [[1, 1], [1, 1]],
            "impacts": [[1, 1], [2, 2]],
        }))
        assert main(["brute", str(path), "any"]) == 0
        assert json.loads(capsys.readouterr().out)["bundles"] == {"a": [], "b": ["x", "y"]}
        assert main(["brute", str(path), "any", "--no-require-sim"]) == 0
        assert json.loads(capsys.readouterr().out)["bundles"] == {"a": ["x", "y"], "b": []}

    def test_brute_any_takes_no_modifier(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, "wsa-nonexistence")
        capsys.readouterr()
        for flags in (["--alpha", "1/2"], ["--alpha", "x"], ["--sa"], ["--sa", "--wsa"]):
            for count in ([], ["--count"]):
                assert main(["brute", str(inst), "any", *flags, *count]) == 2
                assert capsys.readouterr() == (
                    "", "error: notion any takes no awareness modifier\n"
                )

    def test_solve_has_no_require_sim_flag(self, tmp_path, capsys):
        # the flag belongs to brute; solve used to accept it and read it only
        # under --method brute
        inst, _ = self._gen(tmp_path, "unaware-nonexistence")
        capsys.readouterr()
        for method in ("auto", "brute"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", str(inst), "ef", "--method", method, "--no-require-sim"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --no-require-sim" in capsys.readouterr().err
        assert main(["brute", str(inst), "ef", "--no-require-sim"]) == 0
        assert main(["solve", str(inst), "ef"]) == 1
        capsys.readouterr()

    def test_gen_writes_table_faithful_file(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["gen", "partition-ef1", "--weights", "1,2,3", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["items"] == ["G1", "G2", "g1", "g2", "g3"]
        assert obj["valuations"] == [[0, 3, 1, 2, 3], [3, 0, 1, 2, 3]]
        inst = instance_from_obj(obj)
        assert inst.impacts[0] == (1, 0, 1, 1, 1)

    def test_gen_random_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "random", "--agents", "2", "--items", "4", "--v-max", "9",
                "--s-max", "9", "--seed", "42"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_gen_bad_params_exit_2(self, tmp_path):
        assert main(["gen", "partition-ef1", "--weights", "1,2"]) == 2
        assert main(["gen", "wsa", "--weights", "1,1"]) == 2

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["partition-ef1", "--weights", "1,,2"], "bad weight list '1,,2'"),
            (["partition-ef1", "--weights", "1;2"], "bad weight list '1;2'"),
            (["partition-ef1", "--weights", "1;"], "bad weight list '1;'"),
            (["alpha", "--weights", "1;2", "--alpha", "1/2"], "bad weight list '1;2'"),
            (["x3c", "--universe", "3", "--triples", "0,1,x"], "bad triple list '0,1,x'"),
            (["ef-embedding", "--valuations", "1,0;0,z"], "bad matrix '1,0;0,z'"),
        ],
    )
    def test_gen_bad_text_flag_exit_2(self, capsys, argv, err):
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize(
        "argv, with_empty_rows, without",
        [
            (["x3c", "--universe", "6", "--triples"], "0,1,2;;3,4,5;", "0,1,2;3,4,5"),
            (["ef-embedding", "--valuations"], "1,0;;0,1", "1,0;0,1"),
        ],
    )
    def test_gen_skips_empty_rows(self, tmp_path, argv, with_empty_rows, without):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", *argv, with_empty_rows, "-o", str(a)]) == 0
        assert main(["gen", *argv, without, "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_every_canned_example_generates(self, tmp_path, capsys):
        for name in CANNED:
            out, alloc_out = tmp_path / f"{name}.json", tmp_path / f"{name}-alloc.json"
            argv = ["gen", "example", name, "-o", str(out), "--allocation-out", str(alloc_out)]
            assert main(argv) == 0
            example, inst = canned(name), load_instance(out)
            assert inst == example.instance
            assert load_allocation(inst, alloc_out) == example.allocation
        capsys.readouterr()

    def test_gen_example_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "example", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name in CANNED:
            assert name in help_text
        with pytest.raises(SystemExit) as exc:
            main(["gen", "example", "no-such-example"])
        assert exc.value.code == 2
        capsys.readouterr()

    # each case prints a list that must come out empty in a fresh interpreter
    _IMPORT_CASES = {
        # the package imports no submodule of its own
        "import": "import sys, fdsi\n"
        "print([m for m in sys.modules if m.startswith('fdsi.')])",
        # every public name resolves and is listed by dir()
        "public-names": "import fdsi\n"
        "print([n for n in fdsi.__all__ if getattr(fdsi, n) is None or n not in dir(fdsi)])",
        # the generators do not pull in the command line
        "generators": "import sys, fdsi.generators\n"
        "print([m for m in ('fdsi.cli', 'fdsi.search', 'fdsi.oracle', 'fdsi.serialize')"
        " if m in sys.modules])",
    }
    # no well-formed solve, check or brute call loads the generators (the
    # gen command lives there, and argparse's parser builds it), and only
    # an sa-empty call loads the sa-empty solver
    _NOT_GEN = ("fdsi.generators", "fdsi.sa_empty")
    # the exact, brute and check routes also leave the polynomial allocators
    # unloaded; check and gen also leave the walk and the oracle unloaded,
    # and each of those two solvers leaves the other unloaded
    _LEAN = ("fdsi.allocators", *_NOT_GEN)
    _SOLVERS = ("fdsi.search", "fdsi.oracle")
    # no command loads these (inspect comes with dataclasses), except that
    # a rational alpha needs fractions
    _STDLIB = ("dataclasses", "inspect", "fractions")
    # a well-formed solve, check or brute call is read without argparse,
    # which would bring gettext and, with its first help text, locale
    _PARSER = ("argparse", "gettext", "locale")
    # argv, modules the call must not add, modules it must load
    _COMMANDS = {
        "gen": (
            ["gen", "example", "bill-joe", "-o", "{inst}"],
            ("fdsi.allocators", "fdsi.sa_empty", *_SOLVERS),
            ("fdsi.generators",),
        ),
        "solve-exact": (
            ["solve", "{inst}", "ef1", "--method", "exact"],
            _LEAN + _STDLIB + _PARSER + ("fdsi.oracle",),
            ("fdsi.search",),
        ),
        # the picking allocator's answer is certified, so no search runs
        "solve-sa": (
            ["solve", "{inst}", "ef1", "--sa"],
            _NOT_GEN + _STDLIB + _PARSER + _SOLVERS,
            ("fdsi.allocators",),
        ),
        # and so it is with no awareness at all, where picking is fair on
        # {random} (a 3-agent, 8-item random instance)
        "solve-unaware": (
            ["solve", "{random}", "ef1"],
            _NOT_GEN + _STDLIB + _PARSER + _SOLVERS,
            ("fdsi.allocators",),
        ),
        # picking fails ef1 under alpha here, so auto falls back to the oracle
        "solve-alpha": (
            ["solve", "{inst}", "ef1", "--alpha", "1/2"],
            _NOT_GEN + _PARSER + ("fdsi.search",),
            ("fractions", "fdsi.oracle"),
        ),
        # auto sends sa-empty straight to its type solver
        "solve-sa-empty": (
            ["solve", "{inst}", "sa-empty"],
            ("fdsi.allocators", "fdsi.generators", *_SOLVERS) + _STDLIB + _PARSER,
            ("fdsi.sa_empty",),
        ),
        "brute-count": (
            ["brute", "{inst}", "ef1", "--count"],
            _LEAN + _STDLIB + _PARSER + ("fdsi.search",),
            ("fdsi.oracle",),
        ),
        "brute-solve": (
            ["brute", "{inst}", "ef1"],
            _LEAN + _STDLIB + _PARSER + ("fdsi.search",),
            ("fdsi.oracle",),
        ),
        "check": (
            ["check", "{inst}", "{alloc}", "sa-ef1"],
            _LEAN + _STDLIB + _PARSER + _SOLVERS,
            (),
        ),
    }

    @pytest.mark.parametrize("case", [*_IMPORT_CASES, *_COMMANDS])
    def test_import_surface(self, tmp_path, case):
        if case in self._IMPORT_CASES:
            code = self._IMPORT_CASES[case]
        else:
            inst, alloc = self._gen(tmp_path, "wsa-nonexistence", alloc=True)
            rand = tmp_path / "random.json"
            assert main(["gen", "random", "--agents", "3", "--items", "8", "--v-max", "9",
                         "--s-max", "0", "--seed", "1", "-o", str(rand)]) == 0
            argv, absent, present = self._COMMANDS[case]
            argv = [a.format(inst=inst, alloc=alloc, random=rand) for a in argv]
            # what the interpreter loaded before fdsi.cli is not the command's
            code = (
                "import contextlib, io, sys\n"
                "before = set(sys.modules)\n"
                "from fdsi.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    main({argv!r})\n"
                "new = set(sys.modules) - before\n"
                f"print([m for m in {absent!r} if m in new]"
                f" + [m for m in {present!r} if m not in sys.modules])"
            )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_no_typing_or_pathlib_without_site(self, tmp_path):
        # with the site module off (-S) nothing but fdsi can load them; the
        # annotations that name typing's aliases are never evaluated
        inst, alloc = self._gen(tmp_path, "wsa-nonexistence", alloc=True)
        calls = [
            ["solve", str(inst), "sa-ef1"],
            ["solve", str(inst), "sa-ef1", "--method", "exact"],
            ["brute", str(inst), "ef1", "--count"],
            ["check", str(inst), str(alloc), "sa-ef1"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from fdsi.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {calls!r}]\n"
            "print(codes, [m for m in ('typing', 'pathlib') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 0, 0, 0] []\n", "")

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b'{"agents": ' + b"9" * 5000 + b"}", b"[" * 100_000],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_malformed_file_exit_2(self, tmp_path, capsys, command, content):
        # a file that is not JSON fdsi can read is invalid input (exit 2),
        # never a traceback and exit 1 ("provably none")
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if command == "solve":
            argv = ["solve", str(bad), "ef1"]
        else:
            inst, _ = self._gen(tmp_path, "wsa-nonexistence")
            argv = ["check", str(inst), str(bad), "ef1"]
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed JSON in ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "member", [["g1"], {"x": 1}, 1, None, True], ids=["list", "object", "int", "null", "bool"]
    )
    def test_non_string_item_id_exit_2(self, tmp_path, capsys, member):
        # an item id must be a string: anything else is invalid input (exit 2),
        # never a TypeError traceback and exit 1 ("unfair")
        inst, _ = self._gen(tmp_path, "wsa-nonexistence")
        bad = tmp_path / "bad-alloc.json"
        bad.write_text(json.dumps({"bundles": {"a1": [member], "a2": ["g1", "g2", "g3"]}}))
        capsys.readouterr()
        assert main(["check", str(inst), str(bad), "ef1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bundle of 'a1' holds a non-string item id\n"

    _AGENTS = [{"id": "a1"}, {"id": "a2"}]
    _GOOD = {"agents": _AGENTS, "items": ["g1"], "valuations": [[1], [1]], "impacts": [[1], [1]]}

    # (the file that is bad, its JSON, the one stderr line); a bad allocation
    # file is read against the wsa-nonexistence example (agents a1, a2;
    # items g1-g3)
    @pytest.mark.parametrize(
        "kind, obj, err",
        [
            ("instance", [], "instance file must be a JSON object"),
            (
                "instance",
                {"agents": _AGENTS},
                "missing instance keys: ['impacts', 'items', 'valuations']",
            ),
            ("instance", {**_GOOD, "agents": {"id": "a1"}}, "agents must be a list"),
            ("instance", {**_GOOD, "agents": ["a1", "a2"]}, "each agent must be an object"),
            ("instance", {**_GOOD, "agents": [{"id": 1}, {"id": "a2"}]},
             "each agent needs a string id"),
            ("instance", {**_GOOD, "agents": [{"id": "a1", "aware": 1}, {"id": "a2"}]},
             "agent aware flag must be a boolean"),
            ("instance", {**_GOOD, "items": ["g1", 2]}, "items must be a list of strings"),
            ("instance", {**_GOOD, "impacts": [1, 1]}, "impacts must be a list of rows"),
            ("allocation", [], "allocation file must be a JSON object"),
            ("allocation", {"bundles": {}, "owners": {}}, "unknown allocation keys: ['owners']"),
            ("allocation", {"bundles": [["g1"]]}, "allocation file needs a bundles object"),
            ("allocation", {"bundles": {"a3": []}}, "unknown agent id 'a3'"),
            ("allocation", {"bundles": {"a1": "g1"}}, "bundle of 'a1' must be a list"),
            ("allocation", {"bundles": {"a1": ["g4"]}}, "unknown item id 'g4'"),
        ],
    )
    def test_strict_format_rejection_exit_2(self, tmp_path, capsys, kind, obj, err):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        if kind == "instance":
            argv = ["solve", str(bad), "ef1"]
        else:
            inst, _ = self._gen(tmp_path, "wsa-nonexistence")
            argv = ["check", str(inst), str(bad), "ef1"]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("allocation", '{"bundles": {"a1": ["g1"], "a2": ["g2", "g3"], "a1": ["g1"]}}', "a1"),
            ("allocation", '{"bundles": {"a1": ["g1"], "a2": ["g2"], "a1": []}}', "a1"),
            ("instance", '{"agents": [{"id": "a1", "weight": 1, "weight": 2}], "items": [],'
             ' "valuations": [[]], "impacts": [[]]}', "weight"),
            ("instance", '{"agents": [{"id": "a1"}], "items": [], "valuations": [[]],'
             ' "impacts": [[]], "valuations": [[]]}', "valuations"),
        ],
        ids=["agent-twice-same", "agent-twice-other", "weight-twice", "valuations-twice"],
    )
    def test_duplicate_key_exit_2(self, tmp_path, capsys, kind, text, key):
        # json keeps the last value of a repeated key; fdsi refuses the file
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if kind == "instance":
            argv = ["solve", str(bad), "ef1"]
        else:
            inst, _ = self._gen(tmp_path, "wsa-nonexistence")
            argv = ["check", str(inst), str(bad), "ef1"]
        capsys.readouterr()
        assert main(argv) == 2
        err = f"error: malformed JSON in {bad}: duplicate key {key!r}\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "value, err", [("0", "positive"), ("-1", "positive"), ("x", "an integer")]
    )
    def test_bad_state_budget_env_exit_2(self, tmp_path, monkeypatch, capsys, value, err):
        inst = tmp_path / "p.json"
        save_instance(gen_partition_ef1((1, 1, 4)), inst)
        monkeypatch.setenv("FDSI_STATE_BUDGET", value)
        assert main(["solve", str(inst), "ef1", "--method", "exact"]) == 2
        assert capsys.readouterr() == ("", f"error: FDSI_STATE_BUDGET must be {err}\n")

    def test_solve_method_sa_empty_needs_its_notion(self, tmp_path, capsys):
        inst, _ = self._gen(tmp_path, "bill-joe")
        capsys.readouterr()
        assert main(["solve", str(inst), "ef1", "--method", "sa-empty"]) == 2
        assert capsys.readouterr() == (
            "", "error: method sa-empty only solves the sa-empty notion\n"
        )

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["solve", "ef1", "--method", "exact"], "--state-budget"),
            (["solve", "ef1", "--method", "brute"], "--brute-cap"),
            (["solve", "sa-empty"], "--node-budget"),
            (["brute", "ef1"], "--cap"),
        ],
    )
    def test_non_positive_budget_exit_2(self, tmp_path, capsys, command, flag):
        # a budget below 1 is invalid input (exit 2), as FDSI_STATE_BUDGET=0
        # is (test_bad_state_budget_env_exit_2), not a budget that runs out
        # (exit 3)
        inst = tmp_path / "p.json"
        save_instance(gen_partition_ef1((1, 1, 4)), inst)
        argv = [command[0], str(inst), *command[1:]]
        for value in ("0", "-3", "x"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            assert exc.value.code == 2
            assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err
        assert main([*argv, flag, "1"]) == 3  # a budget of 1 is valid and runs out

    def test_state_budget_env(self, tmp_path, monkeypatch):
        none = tmp_path / "none.json"
        assert main(["gen", "partition-ef1", "--weights", "1,1,4", "-o", str(none)]) == 0
        monkeypatch.setenv("FDSI_STATE_BUDGET", "3")
        assert main(["solve", str(none), "ef1", "--method", "exact"]) == 3
        monkeypatch.delenv("FDSI_STATE_BUDGET")

    def test_internal_error_exit_4(self, tmp_path, monkeypatch, capsys):
        inst = tmp_path / "p.json"
        save_instance(gen_partition_ef1((1, 1, 2)), inst)
        # a reference checker that rejects everything makes the final
        # re-check of the search's answer fail
        monkeypatch.setattr(
            fairness, "check", lambda *args, **kwargs: Verdict(False, Witness("ef1"))
        )
        assert main(["solve", str(inst), "ef1", "--method", "exact"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: search accepted an allocation that fails ef1\n"
        )

    def test_crash_exit_4(self, tmp_path, monkeypatch, capsys):
        # an exception no handler names is a crash, not a verdict: exit 4 with
        # one stderr line, never a traceback and exit 1 ("provably none")
        inst = tmp_path / "p.json"
        save_instance(gen_partition_ef1((1, 1, 2)), inst)

        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(search, "exact_solve", crash)
        capsys.readouterr()
        assert main(["solve", str(inst), "ef1", "--method", "exact"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: RecursionError: maximum recursion depth exceeded\n"
        )

    def test_out_of_memory_exit_3(self, tmp_path):
        # identical values 1, 2, 4, ...: every subset sum differs, so each
        # ef state is distinct (2,391,484 of them, about 180 MiB at some 80 B
        # a state), and no split of 8191 into three equal bundles exists, so
        # the search is negative
        m = 13
        inst = tmp_path / "big.json"
        save_instance(
            make_instance(((tuple(2**g for g in range(m)),) * 3), ((1,) * m,) * 3),
            inst,
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        code = (
            "import resource, sys\n"
            "from fdsi.cli import main\n"
            "cap = 128 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            f"sys.exit(main(['solve', {str(inst)!r}, 'ef', '--method', 'exact']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: out of memory\n")

    def test_wide_sef1_walk_runs_out_of_states(self, tmp_path):
        # 2 agents, 20,000 items, values up to 10**6: the walk must reach its
        # budget well inside 96 MiB and a minute, so a Pareto set must stay
        # one id, never a bit per item class or a table over class pairs
        inst = tmp_path / "wide.json"
        save_instance(gen_random(2, 20000, 10**6, 1, 2, 1), inst)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        code = (
            "import resource, sys\n"
            "from fdsi.cli import main\n"
            "cap = 96 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            f"sys.exit(main(['solve', {str(inst)!r}, 'sef1', '--method', 'exact',"
            " '--state-budget', '1000']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("error: state budget of 1000 exceeded"), done.stderr

    def test_solve_under_python_O_same_output(self, tmp_path):
        # the final re-check is not an assert, so -O must not change anything
        inst = tmp_path / "r.json"
        save_instance(gen_random(3, 9, 9, 2, 1, seed=5), inst)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        runs = []
        for flags in ([], ["-O"]):
            runs.append(
                subprocess.run(
                    [sys.executable, *flags, "-m", "fdsi", "solve", str(inst),
                     "efl", "--method", "exact"],
                    capture_output=True, text=True, env=env, timeout=60,
                )
            )
        plain, optimized = runs
        assert plain.returncode == 0 and plain.stderr == ""
        assert plain.stdout
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            plain.returncode, plain.stdout, plain.stderr
        )


class TestEntry:
    @pytest.fixture
    def events(self, monkeypatch):
        """What ``entry`` did, in order, with the process exit and the exit
        callbacks patched so that nothing leaves or ends the test run."""
        events = []
        monkeypatch.setattr(sys, "stdout", sys.stdout)  # entry may wrap it
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
        monkeypatch.setattr(cli, "_watched", lambda: False)
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append("atexit"))
        monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
        return events

    def test_entry_freezes_once_before_main(self, events):
        cli.entry()
        assert events[:2] == ["freeze", "main"]
        assert events[2:] == ["atexit", ("exit", 3)]

    def test_entry_keeps_the_normal_exit_when_watched(self, events, monkeypatch):
        monkeypatch.setattr(cli, "_watched", lambda: True)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 3
        assert events == ["freeze", "main"]

    def test_entry_keeps_the_normal_exit_when_a_flush_fails(self, events, monkeypatch):
        class Gone:
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 3
        assert events == ["freeze", "main"]

    def test_a_profile_hook_is_watching(self):
        before = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            assert cli._watched()
        finally:
            sys.setprofile(before)

    @staticmethod
    def _spawn(args, env=None, stdout=subprocess.PIPE, stdin=b"", preexec_fn=None,
               stderr=subprocess.PIPE):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        return subprocess.run(
            [sys.executable, *args], input=stdin, stdout=stdout, stderr=stderr,
            env=env, timeout=60, preexec_fn=preexec_fn,
        )

    @pytest.fixture
    def inst(self, tmp_path):
        path = tmp_path / "r.json"
        save_instance(gen_random(3, 8, 9, 1, 1, seed=1), path)
        return path

    def test_exit_callbacks_run_and_teardown_is_skipped(self, inst):
        # the callback runs; the object's __del__ would only run at teardown
        code = (
            "import atexit, sys\n"
            "atexit.register(lambda: print('callback', file=sys.stderr))\n"
            "class Torn:\n"
            "    def __del__(self):\n"
            "        print('teardown', file=sys.stderr)\n"
            "torn = Torn()\n"
            "from fdsi.cli import entry\n"
            f"sys.argv = ['fdsi', 'solve', {str(inst)!r}, 'ef1']\n"
            "entry()\n"
        )
        done = self._spawn(["-c", code])
        expected = self._spawn(["-m", "fdsi", "solve", str(inst), "ef1"])
        assert expected.returncode == 0 and expected.stdout
        assert (done.returncode, done.stdout, done.stderr) == (0, expected.stdout, b"callback\n")

    def test_a_profiler_still_writes_its_file(self, tmp_path, inst):
        prof = tmp_path / "p.prof"
        done = self._spawn(["-m", "cProfile", "-o", str(prof), "-m", "fdsi", "solve", str(inst), "ef1"])
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout and prof.stat().st_size > 0

    def test_python_i_still_goes_interactive(self, inst):
        done = self._spawn(["-i", "-m", "fdsi", "solve", str(inst), "ef1"],
                           stdin=b"print('interactive')\n")
        assert done.stdout.startswith(b"{") and done.stdout.endswith(b"}\ninteractive\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("items", [2, 20_000])
    def test_closed_stdout_exits_as_before(self, buffered, items):
        # a reader that has gone away: the exit code and stderr of the normal
        # exit, which is what ``python -m fdsi`` gave before it left early
        argv = ["gen", "random", "--agents", "2", "--items", str(items), "--v-max", "9",
                "--s-max", "1", "--seed", "1"]
        plain = "import sys; from fdsi.cli import main; raise SystemExit(main(sys.argv[1:]))"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        runs = []
        for args in (["-m", "fdsi", *argv], ["-c", plain, *argv]):
            read, write = os.pipe()
            os.close(read)
            try:
                done = self._spawn(args, env, stdout=write)
            finally:
                os.close(write)
            runs.append((done.returncode, done.stderr))
        assert runs[0] == runs[1]
        assert runs[0][0] != 0 and runs[0][1]

    @pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
    @pytest.mark.parametrize("case", ["solve", "check", "invalid"])
    def test_a_stream_closed_at_startup_exits_as_before(self, tmp_path, inst, case, fd, capsys):
        # Python sets the stream to None and print() writes nothing; the
        # exit code is still the answer's, as with the normal exit
        alloc = tmp_path / "a.json"
        assert main(["solve", str(inst), "ef1"]) == 0
        alloc.write_text(capsys.readouterr().out, encoding="utf-8")
        argv = {
            "solve": ["solve", str(inst), "ef1"],
            "check": ["check", str(inst), str(alloc), "ef1"],
            "invalid": ["solve", str(tmp_path / "missing.json"), "ef1"],
        }[case]
        plain = "import sys; from fdsi.cli import main; raise SystemExit(main(sys.argv[1:]))"
        runs = [
            self._spawn(args, preexec_fn=lambda: os.close(fd)).returncode
            for args in (["-m", "fdsi", *argv], ["-c", plain, *argv])
        ]
        assert runs[0] == runs[1] == (2 if case == "invalid" else 0)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_a_reader_that_leaves_mid_answer_exits_2(self, tmp_path, buffered):
        # `fdsi gen random ... | head -c 1`: the reader takes one byte of an
        # answer that overflows the pipe and leaves while fdsi still writes;
        # unbuffered, the text layer used to drop the short count and exit 0
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        err = tmp_path / "err.txt"
        argv = ["gen", "random", "--agents", "2", "--items", "20000", "--v-max", "9",
                "--s-max", "1", "--seed", "1"]
        with open(err, "wb") as err_file, subprocess.Popen(
            [sys.executable, "-m", "fdsi", *argv], stdout=subprocess.PIPE, stderr=err_file,
            env=env,
        ) as proc:
            first = proc.stdout.read(1)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        assert (first, code, err.read_bytes()) == (b"{", 2, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("case", ["invalid", "budget"])
    def test_an_unwritable_stderr_keeps_the_exit_code(self, tmp_path, inst, case):
        # stderr open but read-only: the report fails, the exit code stands
        code, argv = {
            "invalid": (2, ["solve", str(tmp_path / "missing.json"), "ef1"]),
            "budget": (3, ["solve", str(inst), "ef1", "--method", "exact", "--state-budget", "1"]),
        }[case]
        read_only = tmp_path / "stderr.txt"
        read_only.write_bytes(b"")
        plain = "import sys; from fdsi.cli import main; raise SystemExit(main(sys.argv[1:]))"
        codes = []
        for args in (["-m", "fdsi", *argv], ["-c", plain, *argv]):
            with open(read_only, "rb") as stderr:
                codes.append(self._spawn(args, stderr=stderr).returncode)
        assert codes == [code, code]

    def test_main_never_freezes(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        inst = tmp_path / "p.json"
        assert main(["gen", "partition-ef1", "--weights", "1,1,2", "-o", str(inst)]) == 0
        assert main(["solve", str(inst), "ef1", "--method", "exact"]) == 0
        assert main(["brute", str(inst), "ef1", "--count"]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        capsys.readouterr()
        assert calls == []


class TestPerCommandParser:
    """``main`` reads a well-formed ``check``, ``solve`` or ``brute`` call
    off ``cli._COMMANDS`` and hands any other argv to argparse.  What a call
    prints and returns must be exactly what argparse alone gives."""

    # case: (exit code, whether ``_read_argv`` reads it, argv)
    _ARGV = {
        "check": (0, True, ["check", "{inst}", "{alloc}", "sa-ef1"]),
        "solve": (0, True, ["solve", "{inst}", "ef1", "--sa"]),
        "solve-exact": (0, True, ["solve", "{inst}", "sa-ef1", "--method", "exact"]),
        "brute": (0, True, ["brute", "{inst}", "ef1", "--count"]),
        # the last value wins, as in argparse
        "repeated-flag": (0, True, ["solve", "{inst}", "sa-ef1", "--method", "brute", "--method",
                                    "exact"]),
        "gen-partition-ef1": (0, False, ["gen", "partition-ef1", "--weights", "1,1,2"]),
        "gen-mixed": (0, False, ["gen", "mixed", "--weights", "2,2,2"]),
        "gen-wsa": (0, False, ["gen", "wsa", "--weights", ",".join("1" * 10)]),
        "gen-alpha": (0, False, ["gen", "alpha", "--weights", "1,1,2", "--alpha", "1/2"]),
        "gen-x3c": (0, False, ["gen", "x3c", "--universe", "3", "--triples", "0,1,2"]),
        "gen-ef-embedding": (0, False, ["gen", "ef-embedding", "--valuations", "1,0;0,1"]),
        "gen-example": (0, False, ["gen", "example", "bill-joe"]),
        "gen-random": (0, False, ["gen", "random", "--agents", "2", "--items", "3", "--v-max", "3",
                                  "--s-max", "2", "--seed", "1"]),
        "help": (0, False, ["--help"]),
        "solve-help": (0, False, ["solve", "--help"]),
        "gen-random-help": (0, False, ["gen", "random", "--help"]),
        "no-command": (2, False, []),
        "unknown-command": (2, False, ["bogus", "x"]),
        "missing-positionals": (2, False, ["solve"]),
        "missing-generator": (2, False, ["gen"]),
        "bad-method": (2, False, ["solve", "{inst}", "ef1", "--method", "bogus"]),
        "zero-budget": (2, False, ["solve", "{inst}", "ef1", "--state-budget", "0"]),
        # the top-level parser reports these, with its own usage line
        "unrecognized-flag": (2, False, ["check", "{inst}", "{alloc}", "ef1", "--no-such-flag"]),
        # well-formed for argparse, but not read off the table
        "abbreviated-flag": (0, False, ["solve", "{inst}", "sa-ef1", "--meth", "exact"]),
        "flag-equals-value": (0, False, ["solve", "{inst}", "sa-ef1", "--state-budget=1000"]),
        "double-dash": (0, False, ["solve", "--", "{inst}", "sa-ef1"]),
        "help-after-positionals": (0, False, ["solve", "{inst}", "sa-ef1", "-h"]),
    }

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("case", _ARGV)
    def test_same_output_as_full_parser(self, tmp_path, monkeypatch, capsys, case):
        inst, alloc = tmp_path / "i.json", tmp_path / "a.json"
        ex = canned("wsa-nonexistence")
        save_instance(ex.instance, inst)
        alloc.write_text(json.dumps(allocation_to_obj(ex.instance, ex.allocation)))
        code, reads, argv = self._ARGV[case]
        argv = [a.format(inst=inst, alloc=alloc) for a in argv]
        # a read case compares the reader with argparse, the rest argparse
        # with itself
        assert (cli._read_argv(argv) is not None) == reads
        read = self._run(argv, capsys)
        monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
        assert self._run(argv, capsys) == read
        assert read[0] == code and read[1 if code == 0 else 2]


# tokens that no well-formed call holds, or that argparse reads otherwise;
# "--s" and "--c" are ambiguous abbreviations in solve and brute
_JUNK = ["-h", "--", "-", "-1", "--meth", "--s", "--c", "--sa=1", "--state-budget=5",
         "0", " 7", "+3", "bogus", ""]
# positionals and flag values, good and bad
_VALUES = ["i.json", "ef1", "sa-ef1", "1/2", "exact", "5", "0", " 7", "+3", "-1", ""]


@st.composite
def _argvs(draw):
    """A ``check``, ``solve`` or ``brute`` argv: the command's positionals
    (one more or one fewer at times) and some of its flags, each with a
    value if it takes one, in any order, with up to two tokens inserted."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][2]
    units = []
    for flag, keywords in arguments:
        if not flag.startswith("-"):
            units.append([draw(st.sampled_from(_VALUES))])
        elif draw(st.booleans()):
            value = st.sampled_from([*keywords.get("choices", ()), *_VALUES])
            units.append([flag] if "action" in keywords else [flag, draw(value)])
    extra = draw(st.sampled_from([0, 0, 0, 1, -1]))
    if extra > 0:
        units.append([draw(st.sampled_from(_VALUES))])
    elif extra < 0:
        units.pop(0)
    tokens = [token for unit in draw(st.permutations(units)) for token in unit]
    flags = [flag for flag, _ in arguments if flag.startswith("-")]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from([*_JUNK, *_VALUES, *flags])))
    return [name, *tokens]


class TestReadArgv:
    """``cli._read_argv`` reads a well-formed call without argparse, and
    anything else is None, so that argparse reports it."""

    @settings(max_examples=500, deadline=None)
    @given(_argvs())
    def test_never_differs_from_argparse(self, argv):
        read = cli._read_argv(argv)
        if read is None:
            return
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = build_parser().parse_args(argv)
            except SystemExit:
                parsed = None
        assert parsed is not None, f"read an argv that argparse refuses: {argv}"
        assert vars(read) == vars(parsed)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "i.json", "a.json", "sa-ef1", "--require-sim"],
            ["solve", "i.json", "ef1", "--alpha", "1/2"],
            ["solve", "i.json", "--method", "exact", "sef1", "--state-budget", "1000"],
            ["brute", "i.json", "any", "--count", "--no-require-sim", "--cap", "+3"],
        ],
    )
    def test_reads_a_well_formed_call(self, argv):
        assert vars(cli._read_argv(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["gen", "example", "bill-joe"],
            ["solve", "-h"],
            ["solve", "--", "i.json", "ef1"],
            ["solve", "-", "ef1"],
            ["solve", "i.json", "ef1", "--meth", "exact"],
            ["solve", "i.json", "ef1", "--method=exact"],
            ["solve", "i.json", "ef1", "--alpha", "-1"],
            ["solve", "i.json", "ef1", "--state-budget", "0"],
            ["solve", "i.json", "ef1", "--method", "bogus"],
            ["solve", "i.json", "ef1", "--method"],
            ["solve", "i.json"],
            ["solve", "i.json", "ef1", "extra"],
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_argv(argv) is None
