"""One digest of the CLI's exit codes and output over the fast payload corpus.

The corpus is `tools/payload_diff.py`'s fast part: the golden argvs, every
command on every data/ file, and the edge documents (about 200 runs of
`cli.main` in process, about a second). Any moved byte of stdout or stderr,
or any changed exit code, changes the digest. A change that moves bits on
purpose regenerates it with

    python tools/payload_diff.py --digest

and shows what moved with `python tools/payload_diff.py --base <parent>`.
"""

import sys

import momentgibbs.cli as cli
from conftest import ROOT

sys.path.insert(0, str(ROOT / "tools"))
import payload_diff  # noqa: E402

DIGEST = "00255a3ac02600597acfb4dc1c781240b08dfea6efb913aeaf002bc1119de2e6"


def test_fast_corpus_digest():
    cases = payload_diff.fast_corpus()
    assert len(cases) > 200
    assert payload_diff.digest(cases, payload_diff.run_cases(cli, cases)) == DIGEST
