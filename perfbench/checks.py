"""Output checks for each CLI subcommand the benchmark runs.

A check reads the artifacts a command left in its output directory and
returns a list of problems; an empty list means the command's result is
correct.  Expected verdicts are exact: they come from the generator's own
kernel parameters, never from the program under test.  Only the sampler's
reference root marginal is computed with the library, untimed.
"""

from __future__ import annotations

import json

import numpy as np

# Per-bin z limit of the sampler's root histogram.  Over 20 bins a correct
# sampler exceeds 5 standard errors with probability about 1e-5 per op.
SAMPLE_Z_LIMIT = 5.0
HISTOGRAM_BINS = 20


def ratio_certified(ratio: float, k: int) -> bool:
    """The ratio test (M/m)^k - (m/M)^k < 1/k on exact kernel extrema."""
    return ratio**k - ratio ** (-k) < 1.0 / k


def _report(out):
    return json.loads((out / "report.json").read_text())


def _expect_exit(problems, name, rc, allowed):
    if rc not in allowed:
        problems.append(f"{name}: exit code {rc}, expected one of {sorted(allowed)}")


def check_certify(rc, out, caught, expect):
    problems = []
    passed = _report(out)["certificate"]["pass"]
    _expect_exit(problems, "certify", rc, {0} if passed else {3})
    if passed != expect["certified"]:
        problems.append(f"certify: verdict pass={passed}, exact verdict pass={expect['certified']}")
    return problems


def check_solve(rc, out, caught, expect):
    problems = []
    _expect_exit(problems, "solve", rc, {0})
    if _report(out).get("converged") is not True:
        problems.append("solve: not converged")
    rows = (out / "solution.csv").read_text().splitlines()
    if len(rows) != expect["n"] + 2:
        problems.append(f"solve: solution.csv has {len(rows)} lines, expected {expect['n'] + 2}")
    return problems


def eigen_residual_bound(tol, k, lam, lam0, h_min):
    """Largest eigen residual a fixed point solved to ``tol`` can leave.

    With h = f^(1/k), H_k h - lam0 h = lam0 (g^(1/k) - f^(1/k)) where
    g = (Bf)^k is within ``tol`` of f >= h_min^k, so by the mean value
    theorem the residual is at most lam0 tol / (k h_min^(k-1)).  Rescaling
    h by c = (lam/lam0)^(1/(k-1)) multiplies it by c^k = c lam/lam0.  The
    bound is doubled, and one more ``tol * lam * c`` absorbs rounding.
    """
    c = (lam / lam0) ** (1.0 / (k - 1))
    return tol * lam * c * (2.0 / (k * h_min ** (k - 1)) + 1.0)


def check_eigen(rc, out, caught, expect):
    problems = []
    _expect_exit(problems, "eigen", rc, {0})
    rep = _report(out)
    if rep.get("solve", {}).get("converged") is not True:
        return problems + ["eigen: solve not converged"]
    lam0 = rep["lambda0"]
    h_min = min(rep["eigenfunction"]["f"])
    pairs = [(lam0, rep["eigen_residual"])] + [(r["lambda"], r["residual"]) for r in rep["rescaled"]]
    if len(pairs) != len(expect["targets"]) + 1:
        problems.append(f"eigen: {len(pairs) - 1} rescaled pairs, expected {len(expect['targets'])}")
    for lam, residual in pairs:
        bound = eigen_residual_bound(expect["tol"], expect["k"], lam, lam0, h_min)
        if not residual <= bound:
            problems.append(f"eigen: residual {residual:.3e} at lambda={lam:.6g} exceeds {bound:.3e}")
    return problems


def check_probe(rc, out, caught, expect):
    problems = []
    _expect_exit(problems, "probe", rc, {0} if expect["certified"] else {0, 5})
    if _report(out)["n_starts"] != expect["n_starts"]:
        problems.append("probe: wrong number of starts")
    return problems


def root_spins(lines, draws: int, vertices: int) -> tuple[np.ndarray, list]:
    """Root spins from the lines of samples.csv, and any layout problems.

    Streams the lines so the check adds little to the process's peak
    memory, which the benchmark reports."""
    lines = iter(lines)
    if next(lines, "").rstrip("\n") != "sample,vertex,spin":
        return np.empty(0), ["sample: samples.csv header missing"]
    rows = 0
    outside = False
    roots = []
    for line in lines:
        _, vertex, spin = line.split(",")
        spin = float(spin)
        rows += 1
        outside = outside or not (0.0 <= spin <= 1.0)
        if vertex == "r":
            roots.append(spin)
    problems = []
    if rows != draws * vertices:
        problems.append(f"sample: samples.csv has {rows} rows, expected {draws * vertices}")
    if outside:
        problems.append("sample: spin outside [0,1]")
    if len(roots) != draws:
        problems.append(f"sample: {len(roots)} root spins, expected {draws}")
    return np.array(roots), problems


def bin_counts(spins: np.ndarray, bins: int = HISTOGRAM_BINS) -> np.ndarray:
    idx = np.minimum((spins * bins).astype(int), bins - 1)
    return np.bincount(idx, minlength=bins).astype(float)


def histogram_z(counts: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per-bin z scores of binomial counts against expected bin masses."""
    n = counts.sum()
    return (counts / n - expected) / np.sqrt(expected * (1.0 - expected) / n)


def check_sample(rc, out, caught, expect):
    problems = []
    _expect_exit(problems, "sample", rc, {0})
    with open(out / "samples.csv") as lines:
        roots, layout = root_spins(lines, expect["draws"], expect["vertices"])
    problems += layout
    if roots.size == 0:
        return problems
    counts = bin_counts(roots)
    hist = json.loads((out / "histogram.json").read_text())
    if not np.array_equal(np.asarray(hist["counts"], dtype=float), counts):
        problems.append("sample: histogram.json disagrees with the root spins in samples.csv")
    if _report(out)["root_histogram"]["counts"] != hist["counts"]:
        problems.append("sample: report root_histogram disagrees with histogram.json")
    z = histogram_z(counts, expect["reference"]())
    if np.max(np.abs(z)) > SAMPLE_Z_LIMIT:
        problems.append(f"sample: root histogram sup|z| {np.max(np.abs(z)):.2f} > {SAMPLE_Z_LIMIT}")
    return problems


def check_compare(rc, out, caught, expect):
    problems = []
    _expect_exit(problems, "compare", rc, {0})
    if caught:
        problems.append(f"compare: warnings raised: {caught}")
    rep = _report(out)
    if rep["mc"]["n_draws"] != expect["n_mc"]:
        problems.append("compare: wrong number of oracle draws")
    if not rep["sup_abs_z"] <= rep["z_limit"]:
        problems.append(f"compare: sup|z| {rep['sup_abs_z']:.2f} above the limit")
    return problems


CHECKS = {
    "certify": check_certify,
    "solve": check_solve,
    "eigen": check_eigen,
    "probe": check_probe,
    "sample": check_sample,
    "compare": check_compare,
}


def check(command, rc, caught) -> list:
    """Problems with one command's result; unreadable artifacts are one."""
    try:
        return CHECKS[command.name](rc, command.out, caught, command.expect)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command.name}: unreadable artifacts ({type(exc).__name__}: {exc})"]

