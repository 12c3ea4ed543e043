"""Deterministic work counts: Mat constructions of a validated load, Mat
constructions and kron calls of `cohom`, `deform` and `equivariant` runs, how
often the translation map and the splitting X are built by `cohom` runs, and
the largest matrix the equivariant battery builds.

The counts are exact, so a change that brings back nested identity pads,
builds a Mat to check an axiom, rebuilds X per degree, assembles a block-diagonal operator or builds a basis
one vector at a time shows here without a timing test.  Identity matrices
are cached across calls, so each run starts from an empty identity cache.
"""

import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import entwine
from entwine import compalg, complexes, entwining, linalg
from entwine.cli import main
from entwine.compalg import ALGEBRA, CompContext, equivariant_checks
from entwine.zoo import bialgebra_self_entwining, group_algebra_hopf, load, save

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _counted_run(monkeypatch, argv):
    """Run the CLI on argv; return its exit code, the operation counts, and
    the translation_map calls and X builds, counted per Hopf algebra resp.
    structure (a Counter keyed by (what, id))."""
    counts, builds = Counter(), Counter()
    new_mat, real_kron = linalg.Mat.__init__, linalg.kron
    real_translation_map, real_cached = entwining.translation_map, entwining.EntwiningStructure._cached

    def init(self, *args):
        counts["Mat"] += 1
        new_mat(self, *args)

    def kron(*factors):
        counts["kron"] += 1
        return real_kron(*factors)

    def translation_map(h):
        builds["translation_map", id(h)] += 1
        return real_translation_map(h)

    def cached(self, key, build):
        if key == ("splitting",) and key not in self._cache:
            builds["splitting", id(self)] += 1
        return real_cached(self, key, build)

    monkeypatch.setattr(linalg, "_IDENTITY_CACHE", {})
    monkeypatch.setattr(linalg.Mat, "__init__", init)
    monkeypatch.setattr(entwining, "translation_map", translation_map)
    monkeypatch.setattr(entwining.EntwiningStructure, "_cached", cached)
    for info in pkgutil.iter_modules(entwine.__path__):  # kron is bound by name in each importer
        module = importlib.import_module(f"entwine.{info.name}")
        if getattr(module, "kron", None) is real_kron:
            monkeypatch.setattr(module, "kron", kron)
    code = main([str(a) for a in argv])
    return code, dict(counts), builds


@pytest.fixture
def kz5_file(tmp_path):
    path = tmp_path / "kz5.json"
    save(bialgebra_self_entwining(group_algebra_hopf(5)), path)
    return path


def test_validated_load_builds_only_the_parsed_mats(monkeypatch, kz5_file):
    # the axioms are decided on the dense structure constants: mu, eta, Delta, eps, psi
    # and S are the only Mats a validated load builds, as for an unchecked one
    counts = []
    for validate in (True, False):
        new_mat = linalg.Mat.__init__
        built = Counter()

        def init(self, *args, _built=built):
            _built["Mat"] += 1
            new_mat(self, *args)

        with monkeypatch.context() as m:
            m.setattr(linalg, "_IDENTITY_CACHE", {})
            m.setattr(linalg.Mat, "__init__", init)
            load(kz5_file, validate=validate)
        counts.append(built["Mat"])
    assert counts == [6, 6]


def test_cohom_kz5_op_counts(monkeypatch, capsys, kz5_file):
    code, counts, builds = _counted_run(monkeypatch, ["cohom", kz5_file, "--max-degree", "3"])
    assert code == 0 and "-- betti numbers --\n  0: 5\n  1: 0\n  2: 0\n" in capsys.readouterr().out
    assert counts == {"Mat": 51, "kron": 12}
    # h^1..h^3 come from one translation map and one X
    assert sorted(what for what, _ in builds) == ["splitting", "translation_map"]
    assert set(builds.values()) == {1}


def test_cohom_sweedler_side_c_op_counts(monkeypatch, capsys):
    argv = ["cohom", FIXTURES / "sweedler.json", "--side", "C", "--max-degree", "4"]
    code, counts, builds = _counted_run(monkeypatch, argv)
    assert code == 0 and "-- betti numbers --\n  0: 4\n  1: 0\n  2: 0\n  3: 0\n" in capsys.readouterr().out
    # side C is side A of dual(e): no d^n or h^n is re-indexed into vec(f) coordinates
    assert counts == {"Mat": 74, "kron": 17}
    # h^1..h^4 come from one translation map and one X of dual(e)
    assert sorted(what for what, _ in builds) == ["splitting", "translation_map"]
    assert set(builds.values()) == {1}


@pytest.mark.parametrize(
    "argv, want",
    [
        (["deform", "--max-degree", "4"], {"Mat": 560, "kron": 227}),
        (["equivariant", "--max-degree", "1"], {"Mat": 194, "kron": 27}),
    ],
    ids=["deform", "equivariant"],
)
def test_basis_consumers_sweedler_op_counts(monkeypatch, capsys, argv, want):
    # every kernel, image and class basis is one Mat, built once and passed on
    # as it is, so a basis built or restacked one vector at a time shows here
    command, *flags = argv
    code, counts, _ = _counted_run(monkeypatch, [command, FIXTURES / "sweedler.json", *flags])
    assert code == 0 and counts == want


def test_equivariant_checks_kz5_largest_mat(monkeypatch):
    # the closure check applies each equivariance operator to a grid whose
    # columns are the basis pairs (f, g), so no I_{|B_m|} (x) op is built.
    # The most entries are in d^2 (3125 x 625); the most rows in the insertion
    # operator that stacks the 125 equivariant 2-cochains.  The Mat count
    # rises if a grid over a single x is reordered, or if a basis is built or
    # stacked one vector at a time
    shapes = []
    new_mat = linalg.Mat.__init__

    def init(self, *args):
        new_mat(self, *args)
        shapes.append((self.nnz, self.rows))

    monkeypatch.setattr(linalg, "_IDENTITY_CACHE", {})
    monkeypatch.setattr(linalg.Mat, "__init__", init)
    ctx = CompContext(bialgebra_self_entwining(group_algebra_hopf(5)), ALGEBRA)
    assert equivariant_checks(ctx, 2).ok
    largest = max(nnz for nnz, _ in shapes), max(rows for _, rows in shapes)
    assert (len(shapes), *largest) == (416, 9200, 390625)


@pytest.mark.parametrize(
    "name, deg, built",
    [
        ("sweedler", (1, 1), {("d", 0), ("d", 1), ("d", 2), ("h", 1), ("h", 2), ("h", 3)}),
        ("z3", (0, 1), {("d", 0), ("d", 1), ("h", 1), ("h", 2)}),
    ],
    ids=["sweedler", "z3"],
)
def test_cup_builds_each_self_complex_operator_once(monkeypatch, capsys, name, deg, built):
    # cup reads H^m, H^n and H^{m+n} from the context's one complex, which
    # takes each d^n and h^n from the context's cache
    calls = Counter()
    for what, fn in (("d", complexes.module_differential), ("h", complexes.hopf_contracting_homotopy)):

        def counting(e, m, n, _fn=fn, _what=what):
            calls[_what, n] += 1
            return _fn(e, m, n)

        for module in (complexes, compalg):  # compalg binds both by name
            monkeypatch.setattr(module, fn.__name__, counting)
    assert main(["cup", str(FIXTURES / f"{name}.json"), "--deg", *map(str, deg)]) == 0
    assert set(calls) == built and set(calls.values()) == {1}


@pytest.mark.parametrize(
    "name, deg, pairs", [("graded-z2", (1, 2), 3), ("sweedler", (1, 1), 2)], ids=["graded-z2", "sweedler"]
)
def test_cup_checks_each_differential_pair_once(monkeypatch, capsys, name, deg, pairs):
    # H^{m+n} is read first, so one complex up to degree m+n+1 serves all three
    # degrees and d o d = 0 is checked once per pair (d^{k+1}, d^k), k <= m+n-1;
    # a complex per degree multiplied 6 pairs on graded-z2 and 3 on Sweedler
    multiplied = []
    real_init = complexes.CochainComplex.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        multiplied.append(max(self.max_degree - 1, 0))

    monkeypatch.setattr(complexes.CochainComplex, "__init__", init)
    assert main(["cup", str(FIXTURES / f"{name}.json"), "--deg", *map(str, deg)]) == 0
    assert sum(multiplied) == pairs
