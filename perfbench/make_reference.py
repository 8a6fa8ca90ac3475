"""Regenerate ``reference.json.gz``, the gate's table of preset values.

    python3 perfbench/make_reference.py

Runs the presets the sweep workloads use with the code as it stands and
stores the axis values plus ``sin2_bures``, ``lambda_op`` and ``ratio_op``
of every curve.  Regenerate it only for a change that is meant to move
published values, and say so where the change is described.
"""

import csv
import gzip
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from fracqsl import sweep  # noqa: E402


def preset_reference(figures) -> dict:
    curves = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for fig in figures:
            sweep.run_figure(fig, f"{tmp}/{fig}")
            for name, blob in workloads._data_files(f"{tmp}/{fig}").items():
                rows = list(csv.DictReader(blob.decode("utf-8").splitlines()))
                curve = {"axis_value": [float(r["axis_value"]) for r in rows]}
                for col in workloads.REFERENCE_COLUMNS:
                    # 13 significant digits: far inside the gate's 1e-8.
                    curve[col] = [float(f"{float(r[col]):.13g}") for r in rows]
                curves[name.rsplit(".", 1)[0]] = curve
    return curves


def main() -> None:
    figures = [fig for figs in workloads.PRESETS.values() for fig in figs]
    doc = {
        "figures": figures,
        "columns": list(workloads.REFERENCE_COLUMNS),
        "curves": preset_reference(figures),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with open(workloads.REFERENCE, "wb") as fh:
        fh.write(gzip.compress(blob, compresslevel=9, mtime=0))


if __name__ == "__main__":
    main()
