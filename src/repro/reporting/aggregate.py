"""Aggregate benchmark artifacts into a single report.

Every experiment benchmark writes its table/series to
``benchmarks/output/<id>.txt``.  :func:`aggregate_report` stitches those
files into one markdown document (ordered by experiment id, figures and
tables interleaved the way DESIGN.md indexes them), so a full evaluation
run ends with one reviewable artifact::

    pytest benchmarks/ --benchmark-only
    python -m repro report --output-dir benchmarks/output --out REPORT.md
"""

from __future__ import annotations

import json
import pathlib
import re

from ..errors import ReproError
from ..tcam.outcome import SCHEMA_VERSION

_ID_PATTERN = re.compile(r"^R-([FT])(\d+)")

#: Artifact schema versions this build knows how to read.
SUPPORTED_BENCH_SCHEMAS = (SCHEMA_VERSION,)

#: Benchmark artifacts the repo is expected to carry at its root, with
#: the schema version each is written at.  ``repro report`` validates
#: whatever ``BENCH_*.json`` files it finds; this registry is the list
#: of records the benchmark suite itself maintains, so a rename or a
#: dropped artifact fails the reporting tests instead of silently
#: thinning the report.
KNOWN_BENCH_ARTIFACTS: dict[str, int] = {
    "BENCH_cluster.json": 1,
    "BENCH_dse.json": 1,
    "BENCH_faults.json": 1,
    "BENCH_kernels.json": 1,
    "BENCH_retrieval.json": 1,
    "BENCH_search.json": 1,
    "BENCH_service.json": 1,
}


def validate_bench_artifacts(
    bench_dir: str | pathlib.Path = ".",
) -> tuple[pathlib.Path, ...]:
    """Check ``schema_version`` on every ``BENCH_*.json`` under ``bench_dir``.

    Every benchmark record carries the schema version it was written
    with; a report built from artifacts this code cannot interpret would
    silently mix incompatible number layouts, so the mismatch is an
    error, not a warning.

    Returns:
        The validated artifact paths (possibly empty -- a tree without
        benchmark records is fine).

    Raises:
        ReproError: for unparsable artifacts, records without a
            ``schema_version``, or versions this build does not read.
    """
    directory = pathlib.Path(bench_dir)
    checked: list[pathlib.Path] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ReproError(f"benchmark artifact {path} is not valid JSON: {exc}") from exc
        version = record.get("schema_version") if isinstance(record, dict) else None
        if version not in SUPPORTED_BENCH_SCHEMAS:
            supported = ", ".join(str(v) for v in SUPPORTED_BENCH_SCHEMAS)
            raise ReproError(
                f"benchmark artifact {path} has unknown schema_version "
                f"{version!r}; this build reads version(s) {supported}"
            )
        checked.append(path)
    return tuple(checked)


def _sort_key(path: pathlib.Path) -> tuple[int, int, str]:
    """Order: figures and tables by number, figures first on ties."""
    match = _ID_PATTERN.match(path.stem)
    if not match:
        return (99, 0, path.stem)
    kind = 0 if match.group(1) == "F" else 1
    return (kind, int(match.group(2)), path.stem)


def aggregate_report(output_dir: str | pathlib.Path, title: str = "Benchmark report") -> str:
    """Merge every ``*.txt`` artifact under ``output_dir`` into markdown.

    Raises:
        ReproError: when the directory is missing or holds no artifacts.
    """
    directory = pathlib.Path(output_dir)
    if not directory.is_dir():
        raise ReproError(f"artifact directory {directory} does not exist")
    artifacts = sorted(directory.glob("*.txt"), key=_sort_key)
    if not artifacts:
        raise ReproError(f"no artifacts found under {directory}")

    parts = [f"# {title}", "", f"{len(artifacts)} experiment artifacts.", ""]
    for path in artifacts:
        parts.append(f"## {path.stem}")
        parts.append("")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(
    output_dir: str | pathlib.Path,
    out_path: str | pathlib.Path,
    title: str = "Benchmark report",
) -> pathlib.Path:
    """Aggregate and write the report; returns the written path."""
    target = pathlib.Path(out_path)
    target.write_text(aggregate_report(output_dir, title) + "\n")
    return target
