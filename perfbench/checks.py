"""Output checks made apart from the program.

Reference values come from dense LAPACK (`scipy.linalg.eigvalsh`) on the
box matrix built column by column from `StiffnessOperator.apply`, so a
matrix-free operator keeps them valid.  Every check returns a list of
error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh

EIG_RTOL = 1e-10
TORSION_RESIDUAL = 1e-8
ENERGY_RTOL = 0.05
CONTROL_RTOL = 0.01
PARITY_RTOL = 0.005
ALPHA_RTOL = 0.05
VERDICTS = {"translating-bump": "compactness", "flattening-bump": "vanishing",
            "separating-pair": "dichotomy"}


def dense_matrix(op) -> np.ndarray:
    """Box matrix A of a stiffness operator, one `apply` per column."""
    eye = np.eye(op.grid.n_cells)
    return np.column_stack([op.apply(e) for e in eye])


def dirichlet_eigvals(a: np.ndarray, cell_volume: float, idx, k: int) -> np.ndarray:
    """Smallest k eigenvalues of A u = lambda h^dim u on the cells idx."""
    idx = np.asarray(idx)
    return eigvalsh(a[np.ix_(idx, idx)] / cell_volume, subset_by_index=[0, k - 1])


def decode_cells(text: str, n_cells: int) -> np.ndarray:
    """Decode the mask run-length string: alternating runs, zeros first."""
    bits = np.zeros(n_cells, dtype=bool)
    pos, value = 0, False
    for run in map(int, text.split(",")):
        bits[pos:pos + run] = value
        pos, value = pos + run, not value
    if pos != n_cells:
        raise ValueError(f"run lengths cover {pos} cells, grid has {n_cells}")
    return bits


def interval_oracle(a: np.ndarray, cell_volume: float, cells: int) -> float:
    """Smallest lambda_1 over all intervals of `cells` consecutive 1D cells."""
    n = a.shape[0]
    return min(dirichlet_eigvals(a, cell_volume, range(p, p + cells), 1)[0]
               for p in range(n - cells + 1))


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# --- anneal-1d ------------------------------------------------------------------

def check_trajectory(values, masks, volume_cells: int) -> list:
    """Every mask keeps the set volume; incumbent values never increase."""
    errors = [f"mask {i} has {int(m.sum())} cells, expected {volume_cells}"
              for i, m in enumerate(masks) if int(m.sum()) != volume_cells]
    errors += [f"value rises at step {i}: {a!r} -> {b!r}"
               for i, (a, b) in enumerate(zip(values, values[1:]), 1) if b > a]
    return errors


def check_final_value(final_value: float, final_mask, a, cell_volume, k: int) -> list:
    """The reported J = lambda_k equals eigvalsh on the final mask."""
    ref = dirichlet_eigvals(a, cell_volume, np.flatnonzero(final_mask), k)[k - 1]
    if _rel(final_value, ref) > EIG_RTOL:
        return [f"final value {final_value!r} differs from eigvalsh {ref!r}"]
    return []


def check_control(final_value: float, oracle: float) -> list:
    """The l1 compactness control ends within 1% of the best interval."""
    if final_value > (1.0 + CONTROL_RTOL) * oracle:
        return [f"l1 control {final_value!r} is over 1% above the interval "
                f"oracle {oracle!r}"]
    return []


# --- box-2d ---------------------------------------------------------------------

def check_eigenvalues(reported, reference) -> list:
    return [f"lambda_{j} = {r!r}, eigvalsh gives {e!r}"
            for j, (r, e) in enumerate(zip(reported, reference), 1)
            if _rel(r, e) > EIG_RTOL]


def check_square_degeneracy(reported) -> list:
    """lambda_2 = lambda_3 on the square box (the x/y swap symmetry)."""
    if _rel(reported[1], reported[2]) > 1e-8:
        return [f"lambda_2 {reported[1]!r} != lambda_3 {reported[2]!r} on the square"]
    return []


def check_torsion(w, a, cell_volume, idx, resolution=None) -> list:
    """A w = h^dim on the mask to 1e-8, w >= 0, and, when `resolution` is
    given (full 2D box), w symmetric under the square's reflections."""
    idx = np.asarray(idx)
    rhs = np.full(idx.size, cell_volume)
    res = np.linalg.norm(a[np.ix_(idx, idx)] @ w[idx] - rhs) / np.linalg.norm(rhs)
    errors = []
    if not res <= TORSION_RESIDUAL:
        errors.append(f"torsion residual {res:.3e} over {TORSION_RESIDUAL}")
    if w.min() < 0:
        errors.append(f"torsion has negative value {w.min()!r}")
    if resolution is not None:
        sq = w.reshape(resolution, resolution)
        scale = np.abs(sq).max()
        for label, img in (("x-flip", sq[::-1, :]), ("y-flip", sq[:, ::-1]),
                           ("diagonal", sq.T)):
            if np.abs(img - sq).max() > 1e-8 * scale:
                errors.append(f"torsion not symmetric under {label}")
    return errors


def check_energy(kernel_sum: float, fourier: float) -> list:
    """Gagliardo energy of a Gaussian within 5% of the Fourier-side value."""
    if _rel(kernel_sum, fourier) > ENERGY_RTOL:
        return [f"kernel energy {kernel_sum!r} vs Fourier {fourier!r}"]
    return []


def check_same_hashes(first: list, second: list) -> list:
    if first != second:
        return ["repeated operation wrote different artifact hashes"]
    return []


def parity_defect(lam_even_lo: float, lam_odd: float, lam_even_hi: float) -> float:
    """Relative distance of an odd resolution's lambda_1 from the mean of
    its even neighbours."""
    mean = 0.5 * (lam_even_lo + lam_even_hi)
    return abs(lam_odd - mean) / mean


def parity_holds(lam_even_lo, lam_odd, lam_even_hi) -> bool:
    return parity_defect(lam_even_lo, lam_odd, lam_even_hi) <= PARITY_RTOL


# --- analysis-1d ----------------------------------------------------------------

def check_classify(generator: str, report: dict) -> list:
    """Verdict matches the generator; alpha is half the mass for a pair."""
    expected = VERDICTS[generator]
    if report["verdict"] != expected:
        return [f"{generator}: verdict {report['verdict']!r}, expected {expected!r}"]
    if expected == "dichotomy":
        half = report["mass_limit"] / 2.0
        if _rel(report["alpha"], half) > ALPHA_RTOL:
            return [f"{generator}: alpha {report['alpha']!r} not within 5% of {half!r}"]
    return []


def check_lieb_row(row: dict, cells_a, cells_b, lam1) -> list:
    """Redo the shift scan of `lieb_translation_search` for one trial.

    `lam1(idx)` is the reference lambda_1 on the 1D cells idx.  Shifts z
    keep A + z inside the box and run in increasing order.  The reported
    z0 must be the first shift whose intersection has lambda_1 <= the
    bound 2 (lambda_1(A) + lambda_1(B)); if no shift meets it, the row must
    say so and report a shift of least lambda_1.  The reported lambda_1 and
    bound must match the reference.
    """
    ia, ib = np.flatnonzero(cells_a), np.flatnonzero(cells_b)
    bound = 2.0 * float(lam1(ia) + lam1(ib))
    z0, satisfied = int(row["z0"]), int(row["satisfied"])
    tag = f"trial {row['trial']}"
    errors = []
    if _rel(float(row["bound"]), bound) > EIG_RTOL:
        errors.append(f"{tag}: bound {row['bound']} vs {bound!r}")
    lams = {}
    for z in range(-int(ia.min()), cells_a.size - int(ia.max())):
        inter = np.intersect1d(ia + z, ib)
        if inter.size == 0:
            continue
        lams[z] = lam = float(lam1(inter))
        if z != z0 and lam <= bound * (1.0 - EIG_RTOL):
            return errors + [f"{tag}: shift {z} meets the bound ({lam!r} <= {bound!r}) "
                             f"but the search reported shift {z0}"]
        if z == z0 and satisfied:
            break
    if z0 not in lams:
        return errors + [f"{tag}: reported shift {z0} is outside the box or "
                         "leaves an empty intersection"]
    lam = lams[z0]
    if _rel(float(row["lambda1_intersection"]), lam) > EIG_RTOL:
        errors.append(f"{tag}: lambda_1 {row['lambda1_intersection']} vs eigvalsh {lam!r}")
    if satisfied and lam > bound * (1.0 + EIG_RTOL):
        errors.append(f"{tag}: flagged satisfied, but {lam!r} > {bound!r}")
    if not satisfied and lam <= bound * (1.0 - EIG_RTOL):
        errors.append(f"{tag}: flagged unsatisfied, but {lam!r} <= {bound!r}")
    if not satisfied and _rel(lam, min(lams.values())) > EIG_RTOL:
        errors.append(f"{tag}: unsatisfied, but shift {z0} is not a least lambda_1 "
                      f"({lam!r} > {min(lams.values())!r})")
    return errors


def check_two_ball(rows: list) -> list:
    """Gaps are positive and strictly decrease as the balls recede."""
    rows = sorted(rows, key=lambda r: r["d"])
    gaps = [r["gap"] for r in rows]
    errors = [f"gap {g!r} at d = {r['d']!r} is not positive"
              for r, g in zip(rows, gaps) if not g > 0]
    errors += [f"gap grows from {a!r} to {b!r}" for a, b in zip(gaps, gaps[1:])
               if not b < a]
    return errors


def check_failed_audit(rows: list, n_checks: int,
                       fault=("empty_set_conventions",)) -> list:
    """An audit seed that raised failed only the checks of the known fault."""
    failed = sorted(r["check"] for r in rows if r["passed"] != "1")
    errors = []
    if len(rows) != n_checks:
        errors.append(f"{len(rows)} check rows, expected {n_checks}")
    if failed != sorted(fault):
        errors.append(f"audit failed {failed}, expected only {sorted(fault)}")
    return errors


def check_audit(summary: dict, rows: list, n_checks: int) -> list:
    """A passing audit seed reports all_passed over every check."""
    errors = []
    if summary["all_passed"] is not True:
        errors.append("summary does not report all_passed")
    if summary["n_checks"] != n_checks or len(rows) != n_checks:
        errors.append(f"{len(rows)} check rows, expected {n_checks}")
    errors += [f"check {r['check']} did not pass" for r in rows if r["passed"] != "1"]
    return errors
