"""Write the golden configs' outputs, so that a digest re-pin can show its rows.

    PYTHONPATH=src python tests/golden_rows.py OUTDIR

writes `<name>.csv` for every config in `test_golden.GOLDEN_CONFIGS`,
`<name>.svg` for every plot in `test_golden.PLOT_CONFIGS`, and
`show-config-<preset>-<profile>.txt` for every pair in
`test_harness.SHOW_CONFIG_DIGESTS` (the text of the `--show-config` call
that its digest test makes) into OUTDIR.  Run it on two trees and `diff -r`
the two OUTDIRs: the lines that differ are the rows that a changed digest
moved.  pytest does not collect this file.
"""

import contextlib
import io
import os
import sys

from qtcov.cli import main as cli_main
from qtcov.harness import PRESETS, run_experiment
from qtcov.svgplot import emit_plot

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_golden import GOLDEN_CONFIGS, PLOT_CONFIGS  # noqa: E402
from test_harness import SHOW_CONFIG_DIGESTS  # noqa: E402


def main(argv):
    if len(argv) != 1:
        print("usage: golden_rows.py OUTDIR", file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    for name, cfg in sorted(GOLDEN_CONFIGS.items()):
        with open(os.path.join(outdir, f"{name}.csv"), "w") as fh:
            fh.write(run_experiment(cfg).to_csv())
    for name, cfg in sorted(PLOT_CONFIGS.items()):
        with open(os.path.join(outdir, f"{name}.svg"), "w") as fh:
            fh.write(emit_plot(run_experiment(cfg), PRESETS[cfg.experiment][0]))
    for preset, profile in sorted(SHOW_CONFIG_DIGESTS):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli_main(["experiment", "--preset", preset, "--profile", profile,
                             "--show-config"])
        if code != 0:
            return code
        with open(os.path.join(outdir, f"show-config-{preset}-{profile}.txt"), "w") as fh:
            fh.write(text.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
