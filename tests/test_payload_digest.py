"""One digest of the CLI's exit codes and output over the fast payload corpus.

The corpus is `tools/payload_diff.py`'s fast part: the golden argvs, every
command on every data/ file, and the edge documents (about 200 runs of
`cli.main` in process, about a second). Any moved byte of stdout or stderr,
or any changed exit code, changes the digest. A change that moves bits on
purpose regenerates it with

    python tools/payload_diff.py --digest

and shows what moved with `python tools/payload_diff.py --base <parent>`.
The report that command prints is checked here on synthetic payloads.
"""

import io
import sys

import momentgibbs.cli as cli
from conftest import ROOT

sys.path.insert(0, str(ROOT / "tools"))
import payload_diff  # noqa: E402

DIGEST = "e8e488711933393dbde9a4561e1e661ace36e68742fa8becca0149eff00fc765"


def test_fast_corpus_digest():
    cases = payload_diff.fast_corpus()
    assert len(cases) > 200
    assert payload_diff.digest(cases, payload_diff.run_cases(cli, cases)) == DIGEST


def test_report_reads_near_zero_scalars_in_their_stated_scale():
    # a scalar near zero moves by about 1e18 of its own ulps whatever moved: check's
    # maxima are read in their tolerances, invert's grad_norm in the default grad_tol,
    # and a vector's entries in ulps of its largest entry
    check = ('{"max_legendre_residual":%r,"residual_tolerance":1e-10,'
             '"max_roundtrip_error":%r,"roundtrip_tolerance":1e-08}')
    invert = '{"beta":[1.0,%r],"iterations":%d,"grad_norm":%r,"entropy":0.5}'
    cases = [("c", ["check", "-"], b""), ("i", ["invert", "-"], b""), ("h", ["hull", "-"], b"")]
    base = [(0, check % (2e-16, 0.0), ""), (0, invert % (1e-20, 3, 1e-17), ""), (0, "{}", "")]
    head = [(0, check % (4e-16, 1e-12), ""), (0, invert % (2e-20, 4, 3e-17), ""), (0, "{}", "")]
    out = io.StringIO()
    assert payload_diff.report(cases, base, head, out) == 2
    assert out.getvalue().splitlines() == [
        "c: check -",
        "  max_legendre_residual: 2e-16 -> 4e-16 (4503599627370496 ulps, 2e-06 of residual_tolerance)",
        "  max_roundtrip_error: 0.0 -> 1e-12 (4427486594234968593 ulps, 0.0001 of roundtrip_tolerance)",
        "i: invert -",
        "  beta[1]: 1e-20 -> 2e-20 (4503599627370496 ulps, 4.5e-05 ulps of the largest entry)",
        "  iterations: 3 -> 4",
        "  grad_norm: 1e-17 -> 3e-17 (7384606486448858 ulps, 2e-07 of grad_tol)",
        "",
        "3 cases, 2 with different bytes",
        "  check: 0 of 1 byte-identical",
        "    max_legendre_residual: moved in 1 cases, at most 2e-06 of residual_tolerance",
        "    max_roundtrip_error: moved in 1 cases, at most 0.0001 of roundtrip_tolerance",
        "  hull: 1 of 1 byte-identical",
        "  invert: 0 of 1 byte-identical",
        "    beta: moved in 1 cases, at most 4.5e-05 ulps",
        "    grad_norm: moved in 1 cases, at most 2e-07 of grad_tol",
        "    iterations: moved in 1 cases",
        "  iteration counts moved in 1 cases",
    ]
