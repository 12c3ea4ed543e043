"""CLI surface: exit codes, reports, file round trips, determinism."""

import json
import sys
from pathlib import Path

import pytest

from entwine import linalg
from entwine.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(argv):
    return main([str(a) for a in argv])


def test_verify_passes_on_good_fixture(capsys):
    assert run(["verify", FIXTURES / "z2.json"]) == 0
    out = capsys.readouterr().out
    assert "bow-tie: left pentagon" in out
    assert "all checks passed" in out


def test_verify_fails_naming_relation(capsys):
    assert run(["verify", FIXTURES / "corrupted-psi.json"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] bow-tie: left pentagon" in out


def test_verify_trivial_fixture():
    assert run(["verify", FIXTURES / "trivial-k.json"]) == 0


def test_missing_file_is_io_error():
    assert run(["verify", "/no/such/file.json"]) == 2


def test_unwritable_json_path_is_io_error(tmp_path, capsys):
    # the report cannot be written: one error line and exit 2, no traceback
    target = tmp_path / "no-such-dir" / "report.json"
    assert run(["cohom", FIXTURES / "z2.json", "--json", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not target.exists()


def test_malformed_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["verify", bad]) == 2


def _set(section, key, value):
    def edit(doc):
        (doc if section is None else doc[section])[key] = value
        return doc

    return edit


def _zero_dim(section, table, vector):
    """An otherwise consistent file whose section has dimension 0."""

    def edit(doc):
        doc[section].update({"dim": 0, "labels": [], table: [], vector: []})
        doc["psi"] = []
        del doc["hopf"]
        return doc

    return edit


# (edit of fixtures/z2.json, word stderr must contain): each malformed file
# exits 2 and names the offending section or field
MALFORMED_STRUCTURES = {
    "top-level list": (lambda doc: [doc], "document"),
    "non-string field": (_set(None, "field", 7), "field"),
    "non-prime field": (_set(None, "field", "Fp:4"), "field"),
    "non-list labels": (_set("algebra", "labels", 5), "labels"),
    "string dim": (_set("coalgebra", "dim", "2"), "dim"),
    "missing psi": (lambda doc: {k: v for k, v in doc.items() if k != "psi"}, "psi"),
    "short unit": (_set("algebra", "unit", ["1"]), "unit"),
    "long unit": (_set("algebra", "unit", ["1", "0", "0"]), "unit"),
    "short counit": (_set("coalgebra", "counit", ["1"]), "counit"),
    "float index": (_set("algebra", "mult", [[0.0, 0, 0, "1"]]), "mult"),
    "negative index": (_set(None, "psi", [[-1, 0, "1"]]), "psi"),
    "index out of range": (_set("coalgebra", "comult", [[0, 2, 0, "1"]]), "comult"),
    "ragged entry": (_set(None, "psi", [[0, "1"]]), "psi"),
    "boolean coefficient": (_set("algebra", "unit", [True, "0"]), "unit"),
    "float coefficient": (_set(None, "psi", [[0, 0, 1.0]]), "psi"),
    "zero denominator": (_set("hopf", "antipode", [[0, 0, "1/0"]]), "antipode"),
    "non-object hopf": (_set(None, "hopf", []), "hopf"),
    "zero-dim algebra": (_zero_dim("algebra", "mult", "unit"), "dim"),
    "zero-dim coalgebra": (_zero_dim("coalgebra", "comult", "counit"), "dim"),
}

MALFORMED_COEFFICIENTS = {
    "ragged triple": (_set(None, "left", [[0, 0]]), "left"),
    "string dim": (_set(None, "dim", "2"), "dim"),
    "non-list right": (_set(None, "right", 3), "right"),
    "bad coefficient": (_set(None, "right", [[0, 0, "x"]]), "right"),
}


@pytest.mark.parametrize(
    "kind, case",
    [("structure", k) for k in MALFORMED_STRUCTURES] + [("coefficients", k) for k in MALFORMED_COEFFICIENTS],
)
def test_malformed_file_exits_2_naming_the_field(tmp_path, capsys, kind, case):
    from entwine.structures import regular_bimodule
    from entwine.zoo import load, save_coefficients

    structure = FIXTURES / "z2.json"
    bad = tmp_path / "bad.json"
    if kind == "structure":
        edit, word = MALFORMED_STRUCTURES[case]
        bad.write_text(json.dumps(edit(json.loads(structure.read_text()))))
        argv = ["cohom", bad]
    else:
        edit, word = MALFORMED_COEFFICIENTS[case]
        save_coefficients(regular_bimodule(load(structure).algebra), bad, "A")
        bad.write_text(json.dumps(edit(json.loads(bad.read_text()))))
        argv = ["cohom", structure, "--values", f"file:{bad}"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err, err


@pytest.mark.parametrize("side", ["A", "C"])
def test_zero_dim_coefficients_exit_2(tmp_path, capsys, side):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "entwine-coefficients/1", "dim": 0, "left": [], "right": []}))
    assert run(["cohom", FIXTURES / "z2.json", "--side", side, "--values", f"file:{bad}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dim" in err, err


def test_cohom_betti_table(tmp_path):
    out = tmp_path / "report.json"
    assert run(["cohom", FIXTURES / "z2.json", "--side", "A", "--values", "self",
                "--max-degree", "3", "--json", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "entwine-report/1"
    assert doc["tables"]["betti numbers"] == {"0": 2, "1": 0, "2": 0}


def test_cohom_one_dim_and_trivial_fixture(tmp_path):
    out = tmp_path / "report.json"
    assert run(["cohom", FIXTURES / "trivial-k.json", "--json", out]) == 0
    assert json.loads(out.read_text())["tables"]["betti numbers"] == {"0": 1, "1": 0, "2": 0}
    assert run(["cohom", FIXTURES / "trivial-z2.json", "--json", out]) == 0
    assert json.loads(out.read_text())["tables"]["betti numbers"]["0"] == 4


def test_cohom_coalgebra_side(tmp_path):
    out = tmp_path / "report.json"
    assert run(["cohom", FIXTURES / "z2.json", "--side", "C", "--json", out]) == 0
    doc = json.loads(out.read_text())
    assert "betti numbers" in doc["tables"]


def test_cohom_coefficients_file(tmp_path):
    from entwine.structures import regular_bimodule
    from entwine.zoo import load, save_coefficients

    e = load(FIXTURES / "z2.json")
    coeff = tmp_path / "coeff.json"
    save_coefficients(regular_bimodule(e.algebra), coeff, "A")
    out = tmp_path / "report.json"
    assert run(["cohom", FIXTURES / "z2.json", "--values", f"file:{coeff}", "--json", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["tables"]["betti numbers"]["0"] == 2


def test_cohom_rejects_bad_values_flag():
    assert run(["cohom", FIXTURES / "z2.json", "--values", "bogus"]) == 2


def test_degree_cap_enforced():
    assert run(["cohom", FIXTURES / "trivial-k.json", "--max-degree", "5"]) == 2
    assert run(["cohom", FIXTURES / "trivial-k.json", "--max-degree", "4"]) == 0


def test_cup_obeys_degree_cap():
    # --deg M N builds the degree M+N+1 space, so (2, 2) needs degree 5
    assert run(["cup", FIXTURES / "trivial-k.json", "--deg", "2", "2"]) == 2
    assert run(["cup", FIXTURES / "trivial-k.json", "--deg", "4", "0"]) == 2
    assert run(["cup", FIXTURES / "trivial-k.json", "--deg", "2", "1"]) == 0
    assert run(["cup", FIXTURES / "trivial-k.json", "--deg", "2", "2", "--unsafe-degree"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cup", "--deg", "-1", "0"],
        ["cup", "--deg", "0", "-1"],
        ["cohom", "--max-degree", "-1"],
        ["cohom", "--side", "C", "--max-degree", "-1"],
        ["equivariant", "--max-degree", "-1"],
        ["deform", "--max-degree", "-1"],
    ],
)
def test_negative_degree_is_usage_error(argv):
    command, *flags = argv
    assert run([command, FIXTURES / "z2.json", *flags]) == 2


@pytest.mark.parametrize("command", ["verify", "cohom", "cup", "equivariant", "deform", "example"])
def test_negative_seed_is_usage_error(capsys, tmp_path, command):
    # deform's generator raises ValueError on it, and the other commands would
    # copy it into their reports; the CLI refuses first, in one line
    written = tmp_path / "z2.json"
    target = ["z2", "--out", written] if command == "example" else [FIXTURES / "z2.json"]
    assert run([command, *target, "--seed", "-1", "--json", tmp_path / "report.json"]) == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative\n"
    assert not written.exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-degree", "3"],
        ["verify", "--unsafe-degree"],
        ["cup", "--max-degree", "3"],
    ],
)
def test_degree_options_only_where_read(argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        run([command, FIXTURES / "z2.json", *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["cohom", "equivariant", "deform"])
def test_degree_options_accepted(command):
    args = build_parser().parse_args([command, "z2.json", "--max-degree", "5", "--unsafe-degree"])
    assert args.max_degree == 5 and args.unsafe_degree


def test_cup_products(tmp_path):
    out = tmp_path / "report.json"
    assert run(["cup", FIXTURES / "z2.json", "--deg", "0", "0", "--json", out]) == 0
    doc = json.loads(out.read_text())
    rows = doc["tables"]["products on classes"]
    assert len(rows) == 4 and all(r["residual_vanishes"] for r in rows)


def test_cup_higher_degrees_vacuous():
    assert run(["cup", FIXTURES / "z2.json", "--deg", "1", "1"]) == 0


@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_cup_residuals_match_graded_commutativity_oracle(tmp_path, field):
    # graded-z2 has classes in degrees 0-2; over F_7 the (1,1) rows have
    # coordinates 6 and 1, equal up to the sign (-1)^{mn}
    from entwine.compalg import ALGEBRA, CompContext, graded_commutativity
    from entwine.linalg import FieldSpec
    from entwine.zoo import named_example, save

    e = named_example("graded-z2", FieldSpec.parse(field))
    path, out = tmp_path / "g.json", tmp_path / "r.json"
    save(e, path)
    ctx = CompContext(e, ALGEBRA)
    checked = 0
    for m in range(3):
        for n in range(4 - m):
            assert run(["cup", path, "--deg", m, n, "--json", out]) == 0
            rows = json.loads(out.read_text())["tables"]["products on classes"]
            oracle = [ok for _, ok, _ in graded_commutativity(ctx, m, n).items] if rows else []
            assert [r["residual_vanishes"] for r in rows] == oracle, (m, n)
            checked += len(rows)
    assert checked > 0


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_equivariant_command(tmp_path):
    out = tmp_path / "report.json"
    assert run(["equivariant", FIXTURES / "z2.json", "--max-degree", "2", "--json", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["tables"]["equivariant dimensions"] == {"0": 2, "1": 4, "2": 8}


def test_deform_command(tmp_path):
    out = tmp_path / "report.json"
    assert run(["deform", FIXTURES / "z2.json", "--json", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["tables"]["degree-2 classification"] == {
        "cocycles": 9,
        "coboundaries": 8,
        "classes": 1,
    }


def test_deform_low_max_degree_still_classifies_degree_two(tmp_path):
    # H^2 needs the degree-3 space, so lower caps are raised to 3
    default = tmp_path / "default.json"
    assert run(["deform", FIXTURES / "z2.json", "--json", default]) == 0
    expected = json.loads(default.read_text())["tables"]["degree-2 classification"]
    for cap in ("0", "1", "2"):
        out = tmp_path / f"cap{cap}.json"
        assert run(["deform", FIXTURES / "z2.json", "--max-degree", cap, "--json", out]) == 0
        assert json.loads(out.read_text())["tables"]["degree-2 classification"] == expected


def test_oversized_prime_is_parse_error(tmp_path):
    doc = json.loads((FIXTURES / "trivial-k.json").read_text())
    doc["field"] = f"Fp:{2**61 - 1}"
    path = tmp_path / "huge-p.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", path]) == 2


def test_example_round_trip(tmp_path):
    target = tmp_path / "z3.json"
    assert run(["example", "z3", "--out", target]) == 0
    assert run(["verify", target]) == 0


def test_example_corrupted_fixture_fails_verify(tmp_path):
    target = tmp_path / "bad.json"
    assert run(["example", "corrupted-psi", "--out", target]) == 0
    assert run(["verify", target]) == 1


def test_reports_are_byte_identical(tmp_path):
    # two consecutive runs of the full command suite, byte-compared
    blobs = []
    for round_ in (1, 2):
        parts = []
        for i, argv in enumerate(
            [
                ["verify", FIXTURES / "z2.json"],
                ["cohom", FIXTURES / "z2.json", "--max-degree", "3"],
                ["cup", FIXTURES / "z2.json", "--deg", "0", "0"],
                ["equivariant", FIXTURES / "z2.json", "--max-degree", "2"],
                ["deform", FIXTURES / "z2.json", "--seed", "0"],
            ]
        ):
            out = tmp_path / f"{round_}_{i}.json"
            run(argv + ["--json", out])
            parts.append(out.read_bytes())
        blobs.append(b"\n".join(parts))
    assert blobs[0] == blobs[1]


def count_eliminations(monkeypatch, argv):
    """Run the CLI on argv, counting _rref and basis/quotient calls."""
    counts = {"_rref": 0, "kernel_basis": 0, "image_basis": 0, "quotient_with_projection": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        fn = getattr(linalg, name)
        wrapper = counting(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "entwine":
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    assert run(argv) == 0
    return counts


def test_cohom_command_eliminates_nothing_on_hopf_data(monkeypatch, tmp_path):
    # the Hopf contracting homotopy certifies H^1..H^3 = 0 and gives rank d^0
    # as the trace of h^1 d^0, and no kernel/image basis or quotient scan runs
    # (the certificate alone made 1 rref call, the rank path 4, the eager path 12)
    out = tmp_path / "r.json"
    counts = count_eliminations(monkeypatch, ["cohom", FIXTURES / "sweedler.json", "--max-degree", "4", "--json", out])
    assert json.loads(out.read_text())["tables"]["betti numbers"] == {"0": 4, "1": 0, "2": 0, "3": 0}
    assert counts == {"_rref": 0, "kernel_basis": 0, "image_basis": 0, "quotient_with_projection": 0}


def test_cup_on_acyclic_degrees_eliminates_nothing(monkeypatch, tmp_path):
    # H^1 = 0 is certified on both sides, so the classes of degree 1 need no
    # kernel, image or quotient
    out = tmp_path / "r.json"
    counts = count_eliminations(monkeypatch, ["cup", FIXTURES / "sweedler.json", "--deg", "1", "1", "--json", out])
    assert counts["_rref"] == counts["kernel_basis"] == counts["image_basis"] == 0
    report = json.loads(out.read_text())
    assert report["tables"] == {"class counts": {"H^1": 0, "H^2": 0}, "products on classes": []}
    assert [c["passed"] for c in report["checks"]] == [True]


def count_calls(monkeypatch, argv, targets):
    """Run the CLI on argv, counting calls of each (module, name) binding."""
    counts = {name: 0 for _, name in targets}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert run(argv) == 0
    return counts


@pytest.mark.parametrize("deg, classes", [(("0", "0"), 3), (("1", "1"), 2)], ids=["0-0", "1-1"])
def test_cup_reduces_all_products_with_one_solve(monkeypatch, tmp_path, deg, classes):
    # graded-z2 has 3 classes in degree 0 and 2 in degree 1: every product is
    # reduced by one solve, and each class of H^m costs two insertions of it
    import entwine.compalg as compalg

    out = tmp_path / "r.json"
    argv = ["cup", FIXTURES / "graded-z2.json", "--deg", *deg, "--json", out]
    counts = count_calls(monkeypatch, argv, [(linalg, "solve"), (compalg, "solve"), (compalg, "comp_i")])
    assert len(json.loads(out.read_text())["tables"]["products on classes"]) == classes**2
    assert counts["solve"] <= 1 and counts["comp_i"] <= 2 * classes


def test_cup_without_class_pairs_builds_nothing(monkeypatch, tmp_path):
    # z3 has 3 classes in degree 0 and none in degree 1: no insertion operator
    # is built, and the quotient of H^1 is never asked for
    import entwine.compalg as compalg
    from entwine.complexes import CohomologyResult

    reads = []
    reduce = CohomologyResult.reduce
    monkeypatch.setattr(CohomologyResult, "reduce", property(lambda h: reads.append(h.degree) or reduce.fget(h)))
    out = tmp_path / "r.json"
    argv = ["cup", FIXTURES / "z3.json", "--deg", "0", "1", "--json", out]
    assert count_calls(monkeypatch, argv, [(compalg, "middle_operator")]) == {"middle_operator": 0}
    assert reads == []
    assert json.loads(out.read_text())["tables"]["class counts"] == {"H^0": 3, "H^1": 0}


@pytest.mark.parametrize("name,side", [("sweedler", "C"), ("kz6", "A"), ("kz6", "C")])
def test_cohom_certificate_eliminates_nothing(monkeypatch, tmp_path, name, side):
    from entwine.zoo import bialgebra_self_entwining, group_algebra_hopf, save

    path = FIXTURES / "sweedler.json"
    if name == "kz6":
        path = tmp_path / "kz6.json"
        save(bialgebra_self_entwining(group_algebra_hopf(6)), path)
    out = tmp_path / "r.json"
    counts = count_eliminations(monkeypatch, ["cohom", path, "--side", side, "--max-degree", "4", "--json", out])
    betti = json.loads(out.read_text())["tables"]["betti numbers"]
    assert betti == {"0": 4 if name == "sweedler" else 6, "1": 0, "2": 0, "3": 0}
    assert counts == {"_rref": 0, "kernel_basis": 0, "image_basis": 0, "quotient_with_projection": 0}
