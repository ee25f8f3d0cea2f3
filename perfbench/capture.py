"""Build the query pool and capture the reference digests in reference.json.

    python3 perfbench/capture.py

Run this only on a commit whose outputs are trusted: every digest it
writes becomes the expected output of the benchmark's ops.  It captures
the 16 suite seeds of verify-grid, the 16 psi pairs of solve-window and
every query of the query-stream pool (short queries from a fixed
generator, the deep words and the hostile word).  A short or deep query
that fails here is an error; the hostile word's outcome is recorded as
it is.
"""

from __future__ import annotations

import json
import os
import random
import sys

import run
from workloads import (
    DEEP_KS, HOSTILE_ARGV, PSI_CHOICES, SOLVE_WINDOWS, SUITE_SEEDS, cli_digest,
    deep_argv, digest, report_digest, run_cli, solve_key, solve_output, vira,
)

POOL_SEED = 20080518
SHORT_PER_VERB = 58

PSI_FLAGS = [("1", "1"), ("2", "-3/2"), ("-1", "3"), ("1/2", "2")]
MODULES = ["M", "L:xi=0", "L:xi=5/7", "L:xi=-2", "Q:p=(z-1)^2", "Q:p=z^2-1", "W"]
CENTRAL = ["L:xi=0", "L:xi=5/7", "L:xi=1", "L:xi=-2"]
POLYS = ["(z-1)^2*(z+3)", "z^2-1", "z*(z-2)", "(z+1)^3", "z-5/7", "(z-1)*(z-2)*(z-3)"]


def _gen(rng, lo, hi):
    k = rng.randint(lo, hi)
    power = rng.choice([1, 1, 1, 2])
    return f"d{k}" + (f"^{power}" if power > 1 else "")


def _product(rng, lo, hi, factors):
    body = "*".join(_gen(rng, lo, hi) for _ in range(factors))
    coeff = rng.choice(["", "", "", "2*", "3/2*"])
    return coeff + body


def _word(rng):
    expr = _product(rng, -4, 4, rng.randint(2, 3))
    if rng.random() < 0.5:
        expr += rng.choice([" + ", " - "]) + _product(rng, -4, 4, rng.randint(2, 3))
    return expr


def _vector(rng, max_part=3, terms=1):
    out = []
    for _ in range(terms):
        parts = sorted({rng.randint(0, max_part) for _ in range(rng.randint(1, 2))})
        out.append("*".join(f"d-{p}" if p else "d0" for p in parts) + "*w")
    return " + ".join(sorted(set(out)))


def _psi(rng):
    psi1, psi2 = rng.choice(PSI_FLAGS)
    return ["--psi1", psi1, "--psi2", psi2]


#: The short-query verbs, SHORT_PER_VERB queries each: the seven kinds of
#: short query the workload is defined by, none of them favoured.
SHORT_VERBS = ["straighten", "act", "reduce", "orbit", "series", "decompose", "solve"]


def short_query(rng, verb):
    if verb == "straighten":
        argv = ["straighten", _word(rng)]
    elif verb == "act":
        argv = ["act", "--module", rng.choice(MODULES), *_psi(rng),
                _product(rng, -2, 4, rng.randint(1, 2)), _vector(rng)]
    elif verb == "reduce":
        argv = ["reduce", "--module", rng.choice(CENTRAL), *_psi(rng),
                _vector(rng, 4, rng.randint(1, 2))]
    elif verb == "orbit":
        argv = ["orbit", "--module", rng.choice(MODULES), *_psi(rng), _vector(rng, 2)]
    elif verb == "series":
        argv = ["series", "--xi", rng.choice(["0", "1", "-1", "1/2"]),
                "--a", str(rng.randint(1, 3)), "--maxdeg", str(rng.randint(2, 3)),
                "--zerocap", str(rng.randint(1, 2)), *_psi(rng)]
    elif verb == "decompose":
        argv = ["decompose", "--p", rng.choice(POLYS), *_psi(rng)]
    else:
        module = rng.choice(["M", "L:xi=0", "L:xi=5/7", "Q:p=(z-1)^2", "W"])
        argv = ["solve", "--module", module, *_psi(rng),
                "--maxdeg", str(rng.randint(3, 4)), "--zerocap", str(rng.randint(1, 2)),
                "--zcap", str(rng.randint(0, 2))]
    if rng.random() < 0.2:
        argv.append("--json")
    return argv


def query_pool():
    """The short queries, verb after verb, then the deep and hostile words.
    A short query may occur more than once."""
    rng = random.Random(POOL_SEED)
    pool = [{"kind": "short", "argv": short_query(rng, verb)}
            for _ in range(SHORT_PER_VERB) for verb in SHORT_VERBS]
    pool += [{"kind": "deep", "argv": deep_argv(k)} for k in DEEP_KS]
    pool.append({"kind": "hostile", "argv": HOSTILE_ARGV})
    return pool


def capture_queries():
    kernel = vira("kernel")
    pool = query_pool()
    for entry in pool:
        kernel.cache_clear()
        try:
            code, stdout, stderr = run_cli(entry["argv"])
        except Exception as exc:  # recorded for the hostile word only
            if entry["kind"] != "hostile":
                raise
            entry["digest"], entry["seed_outcome"] = None, type(exc).__name__
            continue
        if code != 0 and entry["kind"] != "hostile":
            raise SystemExit(f"pool query failed (exit {code}): {entry['argv']}\n{stderr}")
        entry["digest"] = cli_digest(code, stdout) if code == 0 else None
        entry["seed_outcome"] = f"exit {code}"
    return pool


def capture_verify_grid():
    out = {}
    for suite_seed in SUITE_SEEDS:
        vira("kernel").cache_clear()
        reports = vira("suite").run_all(suite_seed)
        failed = [r.check for r in reports if not r.passed]
        if failed:
            raise SystemExit(f"suite seed {suite_seed}: checks failed: {failed}")
        out[str(suite_seed)] = {r.check: report_digest(r) for r in reports}
        print(f"verify-grid seed {suite_seed}", file=sys.stderr)
    return out


def capture_solve_window():
    from fractions import Fraction

    out = {}
    for psi in PSI_CHOICES:
        rational = (Fraction(psi[0]), Fraction(psi[1]))
        for window in SOLVE_WINDOWS:
            desc, n, z, t, dim = window
            vira("kernel").cache_clear()
            ctx = vira("whittaker").ModuleContext.parse_descriptor(desc, rational)
            basis = vira("analysis").whittaker_solve(ctx, vira("analysis").TruncationSpec(n, z, t))
            if len(basis) != dim:
                raise SystemExit(f"{solve_key(window, psi)}: dimension {len(basis)} != {dim}")
            out[solve_key(window, psi)] = digest(solve_output(basis))
        print(f"solve-window psi {psi}", file=sys.stderr)
    return out


def main():
    run.import_engine()
    reference = {
        "query-stream": capture_queries(),
        "solve-window": capture_solve_window(),
        "verify-grid": capture_verify_grid(),
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE)}", file=sys.stderr)


if __name__ == "__main__":
    main()
