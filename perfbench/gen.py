"""Seeded benchmark inputs: zoo structures under a monomial change of basis.

Every structure is built with the public ``entwine.zoo`` constructors and
written with ``zoo.save``; the seed then rewrites the JSON in a new basis
f_i = s_i e_{p(i)}: a permutation p of the basis and a diagonal scaling by
small nonzero rationals s_i.  A matrix entry M[r, c] moves to M'[p^-1 r,
p^-1 c] and is multiplied by (product of s over the input factors) / (product
of s over the output factors).  A and C share one change when the file has a
``hopf`` section (they are one space there).

The change keeps sparsity, so job sizes stay put, but moves coefficient sizes
and pivot order, which set the exact engine's speed.  Betti numbers, space
dimensions, class counts and check outcomes are invariant under it, so one
table of expected values covers every seed.
"""

from __future__ import annotations

import copy
import json
import os
import random
from fractions import Fraction

from entwine import zoo
from entwine.linalg import FieldSpec, format_coeff, parse_coeff

FP = FieldSpec.parse("Fp:10007")


def _kzn(n, field=FieldSpec.rationals()):
    return lambda: zoo.bialgebra_self_entwining(zoo.group_algebra_hopf(n, field))


def _named(name):
    return lambda: zoo.named_example(name)


# file stem -> constructor; every workload draws its jobs from these files
STRUCTURES = {
    "kz5": _kzn(5),
    "kz5-fp": _kzn(5, FP),
    "kz6": _kzn(6),
    "sweedler": _named("sweedler"),
    "z2": _named("z2"),
    "z3": _named("z3"),
    "graded-z2": _named("graded-z2"),
    "trivial-z2": _named("trivial-z2"),
    "corrupted-psi": _named("corrupted-psi"),
}
# structures whose bow-tie is broken on purpose: load(validate=True) must refuse them
BROKEN = {"corrupted-psi"}

# Scalings are drawn from this multiset (a shuffled prefix), so every seed
# mixes integer, unit-fraction and non-unit fractions in the same proportions.
SCALES = [Fraction(v) for v in ("1", "-1", "2", "-1/2", "3", "-1/3", "2/3", "-3/2")]


class BasisChange:
    """f_i = scale[i] * e_{perm[i]} on one space."""

    def __init__(self, dim, rng):
        self.perm = list(range(dim))
        rng.shuffle(self.perm)
        scales = SCALES * (dim // len(SCALES) + 1)
        rng.shuffle(scales)
        self.scale = scales[:dim]
        self.inv = [0] * dim
        for new, old in enumerate(self.perm):
            self.inv[old] = new


def _move(value, ins, outs):
    """Move one matrix entry; ins/outs are [(change, old index), ...] per tensor factor.

    Returns (new input indices, new output indices, new value).
    """
    v = parse_coeff(value)
    new_in, new_out = [], []
    for ch, old in ins:
        new_in.append(ch.inv[old])
        v *= ch.scale[ch.inv[old]]
    for ch, old in outs:
        new_out.append(ch.inv[old])
        v /= ch.scale[ch.inv[old]]
    return new_in, new_out, format_coeff(v)


def change_basis(doc: dict, rng: random.Random) -> dict:
    """Rewrite an entwine-structure/1 document in a seeded monomial basis."""
    da, dc = doc["algebra"]["dim"], doc["coalgebra"]["dim"]
    ta = BasisChange(da, rng)
    tc = ta if "hopf" in doc else BasisChange(dc, rng)
    out = copy.deepcopy(doc)
    alg, coalg = out["algebra"], out["coalgebra"]
    alg["labels"] = [doc["algebra"]["labels"][old] for old in ta.perm]
    coalg["labels"] = [doc["coalgebra"]["labels"][old] for old in tc.perm]

    mult = []
    for i, j, k, v in doc["algebra"]["mult"]:
        (i2, j2), (k2,), w = _move(v, [(ta, i), (ta, j)], [(ta, k)])
        mult.append([i2, j2, k2, w])
    alg["mult"] = sorted(mult, key=lambda t: t[:3])
    unit = ["0"] * da
    for k, v in enumerate(doc["algebra"]["unit"]):
        _, (k2,), w = _move(v, [], [(ta, k)])
        unit[k2] = w
    alg["unit"] = unit

    comult = []
    for i, j, k, v in doc["coalgebra"]["comult"]:
        (i2,), (j2, k2), w = _move(v, [(tc, i)], [(tc, j), (tc, k)])
        comult.append([i2, j2, k2, w])
    coalg["comult"] = sorted(comult, key=lambda t: t[:3])
    counit = ["0"] * dc
    for i, v in enumerate(doc["coalgebra"]["counit"]):
        (i2,), _, w = _move(v, [(tc, i)], [])
        counit[i2] = w
    coalg["counit"] = counit

    # psi rows index A (x) C, columns C (x) A
    psi = []
    for row, col, v in doc["psi"]:
        (c2, a2), (a3, c3), w = _move(
            v, [(tc, col // da), (ta, col % da)], [(ta, row // dc), (tc, row % dc)]
        )
        psi.append([a3 * dc + c3, c2 * da + a2, w])
    out["psi"] = sorted(psi, key=lambda t: t[:2])

    if "hopf" in doc:
        antipode = []
        for i, j, v in doc["hopf"]["antipode"]:
            (j2,), (i2,), w = _move(v, [(ta, j)], [(ta, i)])
            antipode.append([i2, j2, w])
        out["hopf"]["antipode"] = sorted(antipode, key=lambda t: t[:2])
    return out


def write_inputs(seed: int, outdir: str, names):
    """Write the named structures to outdir/<stem>.json under the seed's basis change.

    Each file except the broken ones must pass zoo.load(path, validate=True),
    which certifies the changed structure.
    """
    os.makedirs(outdir, exist_ok=True)
    for stem in names:
        path = os.path.join(outdir, f"{stem}.json")
        zoo.save(STRUCTURES[stem](), path)
        with open(path) as fh:
            doc = json.load(fh)
        # one stream per file, so a file's basis does not depend on which others are written
        rng = random.Random(f"{seed}:{stem}")
        with open(path, "w") as fh:
            json.dump(change_basis(doc, rng), fh, indent=1)
            fh.write("\n")
        if stem not in BROKEN:
            zoo.load(path, validate=True)
