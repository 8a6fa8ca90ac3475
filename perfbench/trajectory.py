"""Summarise benchmark runs into one trajectory point.

    python3 perfbench/trajectory.py OUT.json [RUN.json ...]

Reads the per-run records that ``run.py`` leaves in ``perfbench/_runs``
(or the files given) and writes, per workload and metric, the median,
the quartiles and their spread as a share of the median, plus the
environment of the first run and the seeds used.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(records: list[dict]) -> dict:
    out = {}
    for rec in records:
        info, result = rec["info"], rec["result"]
        if not result["correct"]:
            continue
        mode = "per_layer" if info["trace"] else "end_to_end"
        slot = out.setdefault(info["workload"], {}).setdefault(mode, {"seeds": [], "metrics": {}})
        slot["seeds"].append(info["seed"])
        slot.setdefault("env", info["env"])
        for name, m in result["metrics"].items():
            slot["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for workload in out.values():
        for slot in workload.values():
            slot["seeds"].sort()
            for m in slot["metrics"].values():
                vals = m.pop("values")
                med = statistics.median(vals)
                m["median"] = med
                m["runs"] = len(vals)
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    m["quartiles"] = [q1, q3]
                    m["iqr_over_median"] = (q3 - q1) / med if med else 0.0
    return out


def main(argv: list[str]) -> None:
    out_path = Path(argv[0])
    paths = [Path(p) for p in argv[1:]] or sorted((HERE / "_runs").glob("*-trace[01].json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    out_path.write_text(json.dumps(summarize(records), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
