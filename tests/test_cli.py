"""Command-line surface: exit codes, round trips, report contents."""

import json
import time
from pathlib import Path

import pytest

import leibniz.algebra
import leibniz.bimodule
import leibniz.cli
import leibniz.tensor
from leibniz.algebra import LeibnizAlgebra, make_A, make_N
from leibniz.bimodule import Bimodule, adjoint
from leibniz.cli import build_parser, main
from leibniz.fields import QQ


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_no_command_prints_usage(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_bare_gr_prints_its_usage(self, capsys):
        code, out, err = run(capsys, "gr")
        assert (code, err) == (2, "")
        assert out.startswith("usage: leibniz gr ")

    def test_check_valid_example(self, capsys):
        code, out, _ = run(capsys, "check", "--example", "A")
        assert code == 0
        assert "valid: True" in out

    def test_unknown_example_fails(self, capsys):
        code, _, err = run(capsys, "check", "--example", "nope")
        assert code == 1
        assert "error" in err

    def test_kernel_simple_algebra(self, capsys):
        code, out, _ = run(capsys, "kernel", "--example", "hemi-sl2-L1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kernel"]["dim"] == 2
        assert doc["is_perfect"] is True

    def test_canonical_lie(self, capsys):
        code, out, _ = run(capsys, "canonical-lie", "--example", "A", "--json")
        assert code == 0
        assert json.loads(out)["quotient_dim"] == 1


class TestRoundTrips:
    def test_algebra_emit_then_parse(self, capsys):
        code, out, _ = run(capsys, "check", "--example", "N", "--dump", "--json")
        assert code == 0
        doc = json.loads(out)["algebra"]
        assert LeibnizAlgebra.from_json(json.dumps(doc)) == make_N(QQ)

    def test_algebra_file_input(self, tmp_path, capsys):
        p = tmp_path / "alg.json"
        p.write_text(make_A(QQ).to_json())
        code, out, _ = run(capsys, "kernel", "--algebra-file", str(p), "--json")
        assert code == 0
        assert json.loads(out)["kernel"]["dim"] == 1

    def test_bimodule_emit_then_parse(self, capsys):
        code, out, _ = run(
            capsys, "bimodule", "--example", "A", "--module", "adjoint", "--dump", "--json"
        )
        assert code == 0
        doc = json.loads(out)["module"]
        assert Bimodule.from_json(json.dumps(doc)) == adjoint(make_A(QQ))

    def test_malformed_scalar_rejected(self, tmp_path, capsys):
        bad = make_A(QQ).to_json().replace('"1"', '"1/0"')
        p = tmp_path / "bad.json"
        p.write_text(bad)
        code, _, err = run(capsys, "check", "--algebra-file", str(p))
        assert code == 1 and "error" in err

    def test_invalid_algebra_file_refused(self, tmp_path, capsys):
        # h e = e h = e breaks the identity at the pair (e, h)
        p = tmp_path / "bad.json"
        p.write_text("""{"field": "Q", "dim": 2, "basis": ["h", "e"],
        "table": [[["0","0"],["0","1"]],[["0","1"],["0","0"]]]}""")
        code, out, err = run(capsys, "check", "--algebra-file", str(p))
        assert (code, out) == (1, "")
        assert err == "error: left Leibniz identity fails at (e, h, e)\n"

    def test_bimodule_file_with_algebra_path(self, tmp_path, capsys):
        alg_path = tmp_path / "alg.json"
        alg_path.write_text(make_A(QQ).to_json())
        doc = json.loads(adjoint(make_A(QQ)).to_json())
        doc["algebra"] = str(alg_path)  # reference instead of inline
        mod_path = tmp_path / "mod.json"
        mod_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "bimodule", "--example", "A", "--module", f"file:{mod_path}", "--json",
        )
        assert code == 0
        assert json.loads(out)["axioms"]["kind"] == "full"

    def test_mismatched_bimodule_rejected(self, tmp_path, capsys):
        doc = json.loads(adjoint(make_A(QQ)).to_json())
        doc["lambda"] = doc["lambda"][:1]  # one action matrix missing
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "bimodule", "--example", "A", "--module", f"file:{p}"
        )
        assert code == 1 and "error" in err


class TestWorkedExamples:
    def test_trunc_bar_solvable_adjoint(self, capsys):
        code, out, _ = run(
            capsys, "trunc", "--bar", "--example", "A", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert doc["kernel"]["basis"] == [["0", "0", "0", "1"]]

    @pytest.mark.parametrize("which, spans", [("--bar", 1), ("--under", 0)])
    def test_trunc_builds_its_kernel_once(self, monkeypatch, capsys, which, spans):
        calls = {"mll_defect_span": 0, "subbimodule_closure": 0}
        for mod in (leibniz.cli, leibniz.tensor, leibniz.bimodule):
            for name in calls:
                if hasattr(mod, name):
                    wrapped = counting(calls, name, getattr(mod, name))
                    monkeypatch.setattr(mod, name, wrapped)
        code, _, _ = run(capsys, "trunc", which, "--example", "A", "--json")
        assert code == 0
        assert calls == {"mll_defect_span": spans, "subbimodule_closure": spans}

    def test_trunc_bar_builds_one_tensor_product(self, monkeypatch, capsys):
        calls = {"tensor_bimodule": 0}
        memo = leibniz.tensor.tensor_bimodule
        wrapped = counting(calls, "tensor_bimodule", memo.__wrapped__)
        monkeypatch.setattr(memo, "__wrapped__", wrapped)
        code, _, _ = run(capsys, "trunc", "--bar", "--example", "A", "--json")
        assert code == 0 and calls["tensor_bimodule"] == 1
        ad = adjoint(make_A(QQ))
        assert leibniz.tensor.trunc_bar(ad, ad).dim == 3
        assert calls["tensor_bimodule"] == 2

    def test_canonical_lie_validates_each_algebra_once(self, monkeypatch, capsys):
        # sl2, the hemi-semidirect product and its Lie quotient
        calls = {"validate": 0}
        memo = leibniz.algebra.validate_left_leibniz
        monkeypatch.setattr(memo, "__wrapped__", counting(calls, "validate", memo.__wrapped__))
        code, _, _ = run(capsys, "canonical-lie", "--example", "hemi-sl2-L1")
        assert code == 0 and calls["validate"] == 3

    def test_trunc_report_nilpotent_char2(self, capsys):
        code, out, _ = run(
            capsys, "trunc-report", "--example", "N", "--field", "Fp:2", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["T"]["dim"] == 0 and doc["T0"]["dim"] == 0
        assert doc["T_equals_T0"] is True

    def test_envelope_dims(self, capsys):
        code, out, _ = run(
            capsys,
            "envelope", "--example", "e", "--which", "ulweak", "--cutoff", "2",
            "--dims", "--json",
        )
        assert code == 0
        assert json.loads(out)["filtered_dims"] == [1, 3, 6]

    def test_envelope_hopf_and_homs(self, capsys):
        code, out, _ = run(
            capsys,
            "envelope", "--example", "A", "--which", "ulweak", "--cutoff", "2",
            "--hopf", "--json",
        )
        assert code == 0
        assert all(json.loads(out)["hopf"].values())

    def test_envelope_primitive_and_homs(self, capsys):
        code, out, _ = run(
            capsys,
            "envelope", "--example", "A", "--which", "ulweak", "--cutoff", "2",
            "--primitive", "--homs", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["degree_one_primitive_dim"] == 3
        assert set(doc["homs"]) == {"d0", "d1", "s0", "omega", "d0_s0", "d1_s0", "kernel_product"}
        assert all(doc["homs"].values())

    def test_tensor_of_a_valid_pair(self, capsys):
        # M (x) N of full factors is weak; MLL fails exactly when the defect
        # span is nonzero
        code, out, _ = run(
            capsys, "tensor", "--example", "A", "--left", "sym:1,0", "--right", "adjoint", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["axioms"] == {"llm": True, "lml": True, "mll": False, "kind": "weak"}
        assert doc["defect_span_dim"] == 1 and doc["mll_iff_defect_zero"]

    def test_chop_json_carries_the_scalars_of_lines(self, capsys):
        code, out, _ = run(capsys, "chop", "--example", "A", "--json")
        assert code == 0
        factors = json.loads(out)["factors"]
        assert [(f["left_scalars"], f["right_scalars"]) for f in factors] == [
            (["1", "0"], ["0", "0"]),
            (["0", "0"], ["0", "0"]),
        ]
        assert [f["anti_symmetric"] for f in factors] == [True, True]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_paper_suite_reports_the_known_red(self, capsys, as_json):
        # 10a states a stronger law than holds (README "Known red")
        code, out, _ = run(capsys, "paper-suite", "--seed", "0", *(["--json"] if as_json else []))
        assert code == 1
        if as_json:
            doc = json.loads(out)
            assert (doc["seed"], doc["passed"], doc["failed"]) == (0, 11, 1)
            assert [c["id"] for c in doc["checks"] if not c["ok"]] == ["10a-weight-identity-laws"]
        else:
            lines = out.splitlines()
            assert lines[-1] == "11 passed, 1 failed"
            assert [l for l in lines if l.startswith("FAIL")][0].startswith(
                "FAIL  10a-weight-identity-laws: "
            )
            assert sum(l.startswith("PASS  ") for l in lines) == 11

    def test_chop_sl2_module(self, capsys):
        code, out, _ = run(
            capsys, "chop", "--example", "sl2", "--left", "sym:L1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] and doc["factors"][0]["dim"] == 2

    def test_chop_takes_no_right_module(self, capsys):
        # chop reads one module, so a --right would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["chop", "--example", "sl2", "--right", "sym:L3"])
        assert exc.value.code == 2
        assert "--right" in capsys.readouterr().err

    def test_gr_props_sl2_failures(self, capsys):
        code, out, _ = run(
            capsys,
            "gr", "props", "--rule", "sl2", "--window", "3", "--trials", "50", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["identities"]["commutative"]["holds"]
        for name in ("associative", "alternative", "jordan", "power_associative"):
            assert not doc["identities"][name]["holds"]
        assert {s["property"] for s in doc["criterion_scan"]} >= {
            "alternative",
            "jordan",
        }

    def test_gr_mul_weight_rationals(self, capsys):
        code, out, _ = run(
            capsys,
            "gr", "mul", "--rule", "weight:1", "--lhs", "S(1/2)", "--rhs", "S(-1/2)",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["product"] == "U"

    def test_gr_verify_pairs(self, capsys):
        code, out, _ = run(
            capsys,
            "gr", "verify", "--rule", "sl2", "--max", "1",
            "--pairs", "S(1)xA(1);UxS(1)", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["pairs"] == 2

    def test_star_rule_through_cli(self, capsys):
        code, out, _ = run(
            capsys,
            "gr", "mul", "--rule", "star:sl2,sl2", "--lhs", "S(1)", "--rhs", "S(1)",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["product"] == "S(2)+U"


class TestTruncReport:
    def test_strict_inclusion_of_w_square_is_reported(self, capsys):
        # W of tests/test_tensor.py ``TestStrictTruncation``, read from a file
        w = f"file:{Path(__file__).parent / 'data' / 'w_bimodule.json'}"
        code, out, _ = run(
            capsys, "trunc-report", "--example", "A", "--left", w, "--right", w, "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert (doc["T"]["dim"], doc["T0"]["dim"]) == (2, 3)
        assert doc["containment_verified"] and not doc["T_equals_T0"]
        assert doc["RESEARCH_FINDING"] == "strict inclusion T < T0 observed"


class TestGrRules:
    @pytest.mark.parametrize("k", [0, 2])
    def test_gr_verify_weight_rule_keeps_its_dimension(self, capsys, k):
        pairs = "UxU" if k == 0 else "S(1,0)xA(0,1);S(1,1)xS(-1,0);UxA(1/2,1)"
        code, out, _ = run(
            capsys, "gr", "verify", "--rule", f"weight:{k}", "--pairs", pairs, "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rule"] == f"weight:{k}" and doc["ok"]
        assert doc["pairs"] == len(pairs.split(";"))

    def test_gr_verify_weight_zero_reconciles_unit_with_unit(self):
        from leibniz.algebra import make_abelian
        from leibniz.groth import UNIT, ClassRegistry, GrElement, verify_ring_vs_modules

        reg = ClassRegistry("weight", make_abelian(QQ, 0))
        unit = reg.module(UNIT)
        assert unit.dim == 1
        (case,) = verify_ring_vs_modules(reg.rule(), reg, [(unit, unit)])["cases"]
        u = GrElement({UNIT: 1})
        assert case["expected"] == case["bar"] == case["under"] == u

    @pytest.mark.parametrize("spec", ["sym:", "anti:", "trivial:1"])
    def test_one_dim_module_over_zero_dim_algebra(self, capsys, spec):
        code, out, _ = run(capsys, "bimodule", "--example", "abelian:0", "--module", spec)
        assert code == 0 and "dim: 1" in out

    def test_gr_verify_window_of_weight_rule(self, capsys):
        code, out, _ = run(capsys, "gr", "verify", "--rule", "weight:2", "--max", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["pairs"] == 17 * 17  # U and 8 nonzero tags per side

    def test_gr_mul_reads_each_side_with_its_ring(self, capsys):
        code, out, _ = run(
            capsys,
            "gr", "mul", "--rule", "star:weight:1,sl2", "--lhs", "A(1)", "--rhs", "A(2)",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["product"] == "A(1)+A(3)"

    def test_gr_mul_rejects_label_foreign_to_rule(self, capsys):
        code, out, err = run(
            capsys, "gr", "mul", "--rule", "star:z,z", "--lhs", "S(1)", "--rhs", "S(1)"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_gr_props_echoes_seed_and_trials(self, capsys):
        code, out, _ = run(
            capsys, "gr", "props", "--rule", "weight:1", "--trials", "7", "--seed", "3", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and (doc["seed"], doc["trials"]) == (3, 7)

    def test_gr_window_zero_is_the_default_window(self, capsys):
        code, out, _ = run(
            capsys, "gr", "props", "--rule", "sl2", "--window", "0", "--trials", "5", "--json"
        )
        assert code == 0
        assert json.loads(out)["window_size"] == 13  # U and weights 1..6 per side

    @pytest.mark.parametrize("argv, count", [
        (("gr", "props", "--rule", "weight:6", "--window", "1"), 1457),
        (("gr", "verify", "--rule", "weight:32", "--max", "1"), 2 * 3**32 - 1),
        (("gr", "props", "--rule", "sl2", "--window", "128"), 257),
    ])
    def test_gr_window_over_the_cap_is_refused_at_once(self, capsys, argv, count):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: a window of {count} labels is over the cap 256\n"

    @pytest.mark.parametrize("argv, dim", [
        (("--max", "16"), 289),
        (("--pairs", "S(16)xS(16)"), 289),
        (("--pairs", "UxU;S(300)xU"), 301),
    ])
    def test_gr_verify_product_over_the_cap_is_refused_at_once(self, capsys, monkeypatch, argv, dim):
        def unreachable(*args):
            raise AssertionError("an sl2 module was built")

        monkeypatch.setattr(leibniz.bimodule, "sl2_irreducible", unreachable)
        start = time.perf_counter()
        code, out, err = run(capsys, "gr", "verify", "--rule", "sl2", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert err.endswith(f"has dimension {dim}, over the cap 256\n")

    def test_gr_verify_product_at_the_cap_passes_the_check(self, monkeypatch):
        class Reached(Exception):
            pass

        built = []

        def stub(algebra, n, side):
            built.append((n, side))
            raise Reached

        monkeypatch.setattr(leibniz.bimodule, "sl2_irreducible", stub)
        with pytest.raises(Reached):
            main(["gr", "verify", "--rule", "sl2", "--max", "15"])
        assert built == [(1, "sym")]


class TestSeedHandling:
    def test_env_seed_overrides_default(self, monkeypatch):
        monkeypatch.setenv("LEIBNIZ_SEED", "17")
        parser = build_parser()
        args = parser.parse_args(["chop", "--example", "A"])
        assert args.seed == 17

    def test_explicit_seed_wins(self, monkeypatch):
        monkeypatch.setenv("LEIBNIZ_SEED", "17")
        parser = build_parser()
        args = parser.parse_args(["chop", "--example", "A", "--seed", "3"])
        assert args.seed == 3

    def test_suite_checks_are_seed_deterministic(self):
        from leibniz import suite

        a = suite.check_rigidity(seed=5)
        b = suite.check_rigidity(seed=5)
        assert (a.ok, a.details) == (b.ok, b.details)
        c = suite.check_oracle_equivalence(seed=9)
        d = suite.check_oracle_equivalence(seed=9)
        assert (c.ok, c.details) == (d.ok, d.details)


# Malformed input for every subcommand but ``gr``; "{missing}" stands for a
# missing file, and each other placeholder for a file holding that entry of
# BAD_FILES: a JSON list or string, not an object; an algebra whose table
# holds a JSON number, not a scalar string, or whose dim is ``true``; and a
# bimodule whose action holds a JSON number.
LINE_ALGEBRA = {"field": "Q", "dim": 1, "basis": ["x"], "table": [[["0"]]]}
BAD_FILES = {
    "list": "[1, 2]",
    "string": '"x"',
    "number_table": json.dumps({**LINE_ALGEBRA, "table": [[[0]]]}),
    "bool_dim": json.dumps({**LINE_ALGEBRA, "dim": True}),
    "number_lambda": json.dumps(
        {"algebra": LINE_ALGEBRA, "dim": 1, "lambda": [[[1]]], "rho": [[["0"]]]}
    ),
}
MODULE_SPECS = ("sym:1/0", "anti:1/0,0,0", "onedim:", "onedim:1", "onedim:1;2;3",
                "onedim:1/0;0", "file:{missing}", "file:{list}", "file:{string}")


def algebra_rows(bads):
    return [
        (command, *bad)
        for command in ("check", "kernel", "canonical-lie", "bimodule", "tensor", "trunc",
                        "trunc-report", "chop", "envelope")
        for bad in bads
    ]


def module_rows(specs):
    return [
        *(("bimodule", "--example", "A", "--module", spec) for spec in specs),
        *(
            (command, "--example", "A", option, spec)
            for command in ("tensor", "trunc", "trunc-report")
            for option in ("--left", "--right")
            for spec in specs
        ),
        *(("chop", "--example", "A", "--left", spec) for spec in specs),
    ]


BAD_INPUTS = [
    *algebra_rows((
        ("--field", "Fp:4"),
        ("--field", "Q:3"),
        ("--example", "abelian:x"),
        ("--algebra-file", "{missing}"),
        ("--algebra-file", "{list}"),
        ("--algebra-file", "{string}"),
    )),
    *module_rows(MODULE_SPECS),
    ("envelope", "--example", "A", "--cutoff", "-1", "--dims"),
    ("envelope", "--example", "sl2", "--cutoff", "-1", "--hopf"),
    # JSON numbers where scalars must be strings, and a boolean dim
    *algebra_rows((("--algebra-file", "{number_table}"), ("--algebra-file", "{bool_dim}"))),
    *module_rows(("file:{number_lambda}",)),
]


PRODUCT_COMMANDS = [("tensor",), ("trunc", "--bar"), ("trunc", "--under"), ("trunc-report",)]


class TestOneLineErrors:
    def test_missing_module_file(self, capsys):
        code, _, err = run(capsys, "bimodule", "--example", "A", "--module", "file:/missing")
        assert code == 1
        assert err.startswith("error: cannot read /missing")
        assert len(err.strip().splitlines()) == 1

    def test_non_object_module_file(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run(capsys, "bimodule", "--example", "A", "--module", f"file:{p}")
        assert code == 1
        assert err.startswith("error: bimodule document must be a JSON object")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
    def test_non_object_algebra_file(self, tmp_path, capsys, text):
        p = tmp_path / "x.json"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", "--algebra-file", str(p))
        assert (code, out) == (1, "")
        assert err == "error: algebra document must be a JSON object\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("chop", "--example", "abelian:-1"),
            ("chop", "--example", "sl2", "--left", "sym:L-1"),
            ("bimodule", "--example", "A", "--module", "trivial:-1"),
            ("gr", "verify", "--rule", "sl2", "--max", "-1"),
            ("gr", "props", "--rule", "sl2", "--window", "-1"),
            ("gr", "props", "--rule", "sl2", "--trials", "-1"),
            ("gr", "mul", "--rule", "weight:-1", "--lhs", "U", "--rhs", "U"),
        ],
    )
    def test_negative_sizes_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "non-negative" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("gr", "mul", "--rule", "weight:1", "--lhs", "S(x)", "--rhs", "U"), "Q"),
            (("bimodule", "--example", "A", "--module", "sym:1,x,2"), "Q"),
            (("bimodule", "--example", "A", "--field", "Fp:5", "--module", "onedim:0,x,0;0,0,0"),
             "Fp:5"),
        ],
    )
    def test_bad_scalar_names_term_and_field(self, capsys, argv, field):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: bad scalar 'x' for field {field}\n"

    @pytest.mark.parametrize("spec", ["trivial:x", "sym:Lx", "sym:L"])
    def test_non_integer_module_size(self, capsys, spec):
        code, _, err = run(capsys, "bimodule", "--example", "sl2", "--module", spec)
        assert code == 1
        assert err.startswith(f"error: module spec {spec!r} needs an integer size")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("spec", ["sym:L100000", "anti:L256", "trivial:100000", "trivial:257"])
    def test_module_spec_dimension_capped(self, capsys, monkeypatch, spec):
        def unreachable(*args):
            raise AssertionError(f"{spec} reached a module builder")

        monkeypatch.setattr(leibniz.cli, "sl2_irreducible", unreachable)
        monkeypatch.setattr(leibniz.cli, "trivial_bimodule", unreachable)
        code, out, err = run(capsys, "chop", "--example", "sl2", "--left", spec)
        assert code == 1 and out == ""
        assert err.startswith(f"error: module spec {spec!r} names a module of dimension")
        assert len(err.strip().splitlines()) == 1

    def test_module_spec_dimension_cap_is_inclusive(self, capsys, monkeypatch):
        built = []

        def stub(algebra, n, side):
            built.append(n)
            return leibniz.cli.trivial_bimodule(algebra, 1)

        monkeypatch.setattr(leibniz.cli, "sl2_irreducible", stub)
        assert run(capsys, "bimodule", "--example", "sl2", "--module", "sym:L255")[0] == 0
        assert built == [255]
        code, out, _ = run(capsys, "bimodule", "--example", "sl2", "--module", "trivial:256")
        assert code == 0 and "dim: 256" in out

    @pytest.mark.parametrize("command", PRODUCT_COMMANDS)
    def test_product_over_the_cap_is_refused_at_once(self, capsys, monkeypatch, command):
        def unreachable(*args):
            raise AssertionError("a tensor product was built")

        monkeypatch.setattr(leibniz.tensor, "tensor_bimodule", unreachable)
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--example", "sl2",
                             "--left", "sym:L16", "--right", "sym:L16")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("error: the product of 'sym:L16' and 'sym:L16' has dimension 289, "
                       "over the cap 256\n")

    @pytest.mark.parametrize("command", PRODUCT_COMMANDS)
    def test_product_at_the_cap_passes_the_check(self, monkeypatch, command):
        class Reached(Exception):
            pass

        built = []

        def stub(left, right):
            built.append((left.dim, right.dim))
            raise Reached

        # trunc-report forms the defect span before its tensor product
        monkeypatch.setattr(leibniz.tensor, "tensor_bimodule", stub)
        monkeypatch.setattr(leibniz.tensor, "mll_defect_span", stub)
        with pytest.raises(Reached):
            main([*command, "--example", "sl2", "--left", "sym:L15", "--right", "sym:L15"])
        assert built == [(16, 16)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("chop", "--example", "sl2", "--left", "sym:L2", "--field", "Fp:1000000007"),
            ("check", "--example", "e", "--field", "Fp:2305843009213693951"),
            ("chop", "--example", "A", "--field", "Fp:1000003"),
        ],
    )
    def test_large_moduli_refused(self, capsys, argv):
        # refused before any work: listing F_p or trial division grows with p
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: modulus") and "too large" in err
        assert len(err.strip().splitlines()) == 1

    def test_abelian_dimension_capped(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("abelian:100000 reached make_abelian")

        monkeypatch.setattr(leibniz.algebra, "make_abelian", unreachable)
        code, out, err = run(capsys, "check", "--example", "abelian:100000")
        assert code == 1 and out == ""
        assert err == "error: abelian dimension 100000 is over the cap 32\n"

    def test_abelian_dimension_cap_is_inclusive(self, capsys, monkeypatch):
        built = []
        make = leibniz.algebra.make_abelian
        monkeypatch.setattr(leibniz.algebra, "make_abelian",
                            lambda field, n: built.append(n) or make(field, n))
        cap = leibniz.algebra.MAX_ABELIAN_DIM
        code, out, _ = run(capsys, "kernel", "--example", f"abelian:{cap}")
        assert (cap, code, built) == (32, 0, [32]) and "dim: 0" in out

    def test_malformed_seed_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("LEIBNIZ_SEED", "abc")
        code, _, err = run(capsys, "check", "--example", "A")
        assert code == 1
        assert "LEIBNIZ_SEED" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ("gr", sub, "--rule", rule, *extra)
                for rule in ("weight:x", "weight:-1", "star:z", "star:sl2,q", "nosuch")
                for sub, extra in (
                    ("mul", ("--lhs", "U", "--rhs", "U")),
                    ("props", ()),
                    ("verify", ()),
                )
            ),
            *(
                ("gr", "mul", "--rule", rule, "--lhs", label, "--rhs", "U")
                for rule, label in (
                    ("sl2", "S("),
                    ("sl2", "Q(1)"),
                    ("sl2", "S(1,2)"),
                    ("sl2", "S(x)"),
                    ("sl2", "S(-1)"),
                    ("weight:1", "S(x)"),
                    ("weight:1", "S(1,2)"),
                    ("star:z,z", "S(1)"),
                )
            ),
            *(
                ("gr", "verify", "--rule", "sl2", "--pairs", pairs)
                for pairs in ("S(1)xS(x)", "S(1)", "2*S(1)xU", "S(1)xQ(1)")
            ),
            ("gr", "verify", "--rule", "star:sl2,sl2"),
            ("gr", "verify", "--rule", "sl2", "--max", "-2"),
            ("gr", "props", "--rule", "weight:1", "--window", "-2"),
            ("gr", "props", "--rule", "weight:1", "--trials", "-2"),
        ],
    )
    def test_gr_bad_input_is_one_line(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code in (1, 2)
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", BAD_INPUTS)
    def test_bad_input_is_one_line(self, capsys, tmp_path, argv):
        paths = {"missing": tmp_path / "missing.json"}
        for name, text in BAD_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text, encoding="utf-8")
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code in (1, 2)
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
