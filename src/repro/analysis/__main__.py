"""CLI driver: ``python -m repro.analysis [targets...]``.

Targets are ``.py`` files / directories (linted) and ``.policy`` files
(compiled and statically verified).  Directory targets additionally
get the interprocedural secrecy-flow taint pass (whole-package by
nature; ``--no-taint`` skips it, single-file targets never run it).
With no targets, analyzes the ``repro`` package this module was
imported from plus ``examples/policies/*.policy`` under the current
directory.  A target that does not exist, or is none of the three
kinds, is a usage error (exit 2), never a silent pass.  A policy
owner lints a policy here (``python -m repro.analysis my.policy``)
before uploading it; the controller runs no verifier.

``--fail-on-findings`` exits 1 when any *error*-severity finding
remains after pragma suppression; warnings are reported but do not
fail the gate.  ``--format markdown`` emits the table CI publishes as
the job summary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.findings import (
    Finding,
    render_json_report,
    render_markdown,
    render_text,
)
from repro.analysis.lint import lint_source
from repro.analysis.policy_verify import verify_source
from repro.analysis.taint import analyze_package
from repro.errors import PolicyError

#: The installed ``repro`` package root (works from any cwd).
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def _package_relative(path: Path) -> str:
    """Path relative to the innermost ``repro`` ancestor, so the
    layer-scoped lint rules (``core/``, ``sgx/``) apply no matter how
    the target was spelled on the command line."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return path.name


def _iter_python_files(target: Path):
    if target.is_dir():
        for path in sorted(target.rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path
    elif target.suffix == ".py":
        yield target


def _taint_root(target: Path) -> Path:
    """The package root the taint pass should analyze for ``target``:
    the innermost ``repro`` ancestor (so ``src/repro/core`` analyzes
    the whole package — summaries need every module), else the
    directory itself."""
    parts = target.resolve().parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return Path(*parts[: index + 1])
    return target


def analyze_targets(
    targets: list[Path], taint: bool = True
) -> list[Finding]:
    findings: list[Finding] = []
    taint_roots: list[Path] = []
    for target in targets:
        if target.suffix == ".policy":
            source = target.read_text()
            try:
                reports = verify_source(source)
            except PolicyError as exc:
                reports = [
                    Finding(
                        rule="policy/compile-error",
                        message=f"does not compile: {exc}",
                    )
                ]
            for finding in reports:
                findings.append(
                    Finding(
                        rule=finding.rule,
                        message=finding.message,
                        file=str(target),
                        line=finding.line,
                        severity=finding.severity,
                        context=finding.context,
                    )
                )
        else:
            for path in _iter_python_files(target):
                findings.extend(
                    lint_source(path.read_text(), _package_relative(path))
                )
            if taint and target.is_dir():
                root = _taint_root(target)
                if root not in taint_roots:
                    taint_roots.append(root)
    for root in taint_roots:
        findings.extend(analyze_package(root))
    return findings


def default_targets() -> list[Path]:
    targets: list[Path] = [PACKAGE_ROOT]
    policies = Path("examples/policies")
    if policies.is_dir():
        targets.extend(sorted(policies.glob("*.policy")))
    return targets


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Pesos static analysis: lint + policy verifier.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        type=Path,
        help=".py files, directories, or .policy files "
        "(default: the repro package + examples/policies/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        dest="fmt",
    )
    parser.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 1 if any error-severity finding remains",
    )
    parser.add_argument(
        "--no-taint",
        action="store_true",
        help="skip the interprocedural secrecy-flow taint pass",
    )
    args = parser.parse_args(argv)
    for target in args.targets:
        if not target.exists():
            parser.error(f"{target}: no such file or directory")
        if not (target.is_dir() or target.suffix in (".py", ".policy")):
            parser.error(f"{target}: not a directory, .py or .policy file")

    targets = args.targets or default_targets()
    findings = analyze_targets(targets, taint=not args.no_taint)

    renderer = {
        "text": render_text,
        "json": render_json_report,
        "markdown": render_markdown,
    }[args.fmt]
    print(renderer(findings))

    if args.fail_on_findings and any(
        f.severity == "error" for f in findings
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
