"""Workload definitions: the CLI jobs one pass runs, and why each workload exists.

A job is one ``entwine.cli.main`` call on a generated structure file.  A pass
runs a workload's jobs in order in a closed loop (one caller; each job starts
when the previous one returns).  The per-layer columns below name the traced
metrics (see tracing.py) that should move each workload's end-to-end numbers,
so a change to one layer can be checked on the workload that exercises it and
on one that bypasses it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    command: str
    stem: str              # generated file (gen.STRUCTURES key)
    args: tuple = ()
    exit_code: int = 0     # 1 where a mathematical check must fail
    smoke: bool = False    # part of the tiny slice the self-test runs

    @property
    def id(self) -> str:
        return " ".join((self.command, self.stem) + self.args)


def _deg(n):
    return ("--max-degree", str(n))


# cohom-ladder: a few large exact eliminations.  linalg rref has the largest
# self time by far and compalg and deform do no work, so it is the workload
# for reduction before elimination and a betti-only path (ROADMAP item 4).
# Layers that should move cohom_s here: linalg.rref.{calls,self_s,cells,nnz_in},
# complexes.differential.*, complexes.complex_init.self_s (the d o d check),
# complexes.cohomology.*, homspace.operator.*, entwining.tower.*.  compalg.*
# and deform.* are zero here, linalg.solve.* near zero.
# kZ6 is left out: on a 2-core machine one job takes 8-11 s over Q and
# 2.7-4.9 s over F_p, too few passes per run to settle the median.  kZ5 over Q
# and over F_p keep one large rational and one large modular elimination
# (d^2 is 3125x625).
COHOM_LADDER = (
    Job("cohom", "kz5", _deg(3)),
    Job("cohom", "kz5-fp", _deg(3)),
    Job("cohom", "sweedler", _deg(4) + ("--side", "A")),
    Job("cohom", "sweedler", _deg(4) + ("--side", "C"), smoke=True),
)

# cochain-algebra: the mirror of cohom-ladder, thousands of tiny matrix
# operations.  compalg insertions, kron and scipy object construction
# dominate; rref only sees small and mid-size matrices.  Workload for ROADMAP
# items 2, 3 and 4 (b).  Layers that should move equivariant_s and cup_s here:
# linalg.mat_new.*, linalg.kron.*, linalg.matmul.*, linalg.addsub.self_s,
# compalg.comp_i.*, compalg.K.self_s, compalg.{cup,sqcup,coboundary}.*,
# compalg.cross_check.{self_s,share}, compalg.equivariant_basis.self_s.  The
# verify jobs carry zoo.load.*, structures.validate.*, entwining.check_bowtie.*
# and zoo.load.validations_per_load (1 would be the useful value) for verify_s.
# equivariant runs at --max-degree 1 on z3 and Sweedler: at degree 2 they take
# ~10 s and ~30 s, which no run of this benchmark can hold; z2 keeps degree 2.
#
# The deform jobs (planned as a third workload, deform-roundtrip) ride here:
# on a 2-core machine whose speed drifts by up to ~45 % over minutes, a third
# workload's share of the run budget gave runs too short to settle.  They use
# linalg differently: dozens of solve calls, each re-eliminating an augmented
# copy of one mid-size d^1, plus block assembly of the total complex, so a
# factorization cache shows here and not in cohom-ladder, and a
# bulk-elimination change the other way round.  Layers that should move
# deform_s: linalg.solve.{calls,self_s}, linalg.quotient.self_s,
# linalg.kernel_basis.self_s, linalg.rref.*, deform.total_complex.self_s,
# deform.first_order_checks.*, deform.coboundary_equivalence.*.
COCHAIN_ALGEBRA = (
    Job("equivariant", "z2", _deg(2)),
    Job("equivariant", "z3", _deg(1)),
    Job("equivariant", "sweedler", _deg(1)),
    Job("cup", "z3", ("--deg", "0", "1"), smoke=True),
    Job("cup", "z3", ("--deg", "1", "1")),
    Job("cup", "sweedler", ("--deg", "0", "1")),
    Job("cup", "sweedler", ("--deg", "1", "1")),
    Job("deform", "sweedler", _deg(4)),
    Job("deform", "z3", _deg(3)),
    Job("deform", "graded-z2", _deg(3)),
    Job("deform", "trivial-z2", _deg(3), smoke=True),
) + tuple(
    Job("verify", stem, exit_code=1 if stem == "corrupted-psi" else 0, smoke=True)
    for stem in ("kz5", "kz5-fp", "kz6", "sweedler", "z2", "z3", "graded-z2", "trivial-z2", "corrupted-psi")
)

WORKLOADS = {
    "cohom-ladder": COHOM_LADDER,
    "cochain-algebra": COCHAIN_ALGEBRA,
}

# per-command wall-time metrics (summed over a pass): what a user waits for
COMMANDS = ("cohom", "cup", "equivariant", "deform", "verify")


def jobs_for(workload: str, smoke: bool = False) -> tuple:
    jobs = WORKLOADS[workload]
    return tuple(j for j in jobs if j.smoke) if smoke else jobs


def stems_for(jobs) -> list:
    return sorted({j.stem for j in jobs})
