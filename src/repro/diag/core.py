"""Diagnostics core: codes, severities, findings, and the collector.

The validator used to raise on the first inconsistency it met; real
static analysis wants *all* findings at once, each pointing at the
offending source region.  A :class:`Diagnostic` is one finding — a stable
code (``RV1xx`` for descriptor lints, ``RQ2xx`` for query analyses), a
severity, a message, an optional :class:`~repro.metadata.spans.Span`, and
an optional suggested fix.  A :class:`Collector` gathers many of them;
:meth:`Descriptor.validate <repro.metadata.descriptor.Descriptor.validate>`
raises its first error.

Every code must be registered in :data:`CODES`; ``docs/diagnostics.md``
catalogues them and ``tests/test_diag.py`` checks both stay in sync.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..metadata.spans import Span


class Severity(enum.Enum):
    """How bad a finding is; ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: Registry of every diagnostic code: code -> (default severity, title).
#: RV0xx: the descriptor could not be analysed at all.
#: RV1xx: descriptor (schema/storage/layout) lints.
#: RQ2xx: query-vs-descriptor analyses.
#: RO3xx: execution-option (ExecOptions) analyses.  RO300–RO302, RO304,
#:        RO305, RO307 and RO309–RO312 are retired (the constructor
#:        refuses those values now) and must not be reused.
#: RT3xx: query type inference/checking (repro.sql.typecheck).
#: RW4xx: equivalence-preserving rewrite explain entries
#:        (repro.sql.rewrite; informational audit trail).
CODES: Dict[str, Tuple["Severity", str]] = {
    "RV001": (Severity.ERROR, "descriptor syntax error"),
    "RV002": (Severity.ERROR, "descriptor assembly error"),
    "RV101": (Severity.ERROR, "no leaf dataset"),
    "RV102": (Severity.ERROR, "leaf dataset without files"),
    "RV103": (Severity.ERROR, "empty dataset"),
    "RV104": (Severity.ERROR, "file patterns on a non-leaf dataset"),
    "RV105": (Severity.ERROR, "undefined schema reference"),
    "RV106": (Severity.ERROR, "stored attribute not in schema"),
    "RV107": (Severity.ERROR, "attribute stored twice in one leaf"),
    "RV108": (Severity.ERROR, "attribute stored by two leaves"),
    "RV109": (Severity.ERROR, "binding variable bound twice"),
    "RV110": (Severity.ERROR, "LOOP variable shadows an enclosing loop"),
    "RV111": (Severity.ERROR, "LOOP variable collides with a binding"),
    "RV112": (Severity.ERROR, "loop bound uses a non-binding variable"),
    "RV113": (Severity.ERROR, "file pattern uses unbound variables"),
    "RV114": (Severity.ERROR, "pattern references an undeclared DIR index"),
    "RV115": (Severity.ERROR, "pattern expands to an invalid path"),
    "RV116": (Severity.ERROR, "schema attribute neither stored nor implicit"),
    "RV117": (Severity.ERROR, "implicit attribute must have integer type"),
    "RV118": (Severity.ERROR, "DATAINDEX attribute not in schema"),
    "RV119": (Severity.ERROR, "provably empty range"),
    "RV120": (Severity.ERROR, "non-positive range stride"),
    "RV121": (Severity.ERROR, "range expression cannot be evaluated"),
    "RV122": (Severity.WARNING, "unused binding variable"),
    "RV123": (Severity.ERROR, "duplicate file binding across leaves"),
    "RV124": (Severity.WARNING, "implicit attribute type too narrow"),
    "RV125": (Severity.INFO, "stride never reaches the upper bound"),
    "RV126": (Severity.INFO, "no DATAINDEX declared"),
    "RV127": (Severity.WARNING, "storage DIR never referenced"),
    "RQ200": (Severity.ERROR, "query syntax error"),
    "RQ201": (Severity.ERROR, "query targets a different dataset"),
    "RQ202": (Severity.ERROR, "SELECT references an unknown attribute"),
    "RQ203": (Severity.ERROR, "WHERE references an unknown attribute"),
    "RQ204": (Severity.ERROR, "unknown filter function"),
    "RQ205": (Severity.ERROR, "filter function arity mismatch"),
    "RQ206": (Severity.ERROR, "type mismatch in comparison"),
    "RQ207": (Severity.WARNING, "WHERE clause is provably empty"),
    "RQ208": (Severity.WARNING, "predicate excludes the declared dataspace"),
    "RQ209": (Severity.WARNING, "predicate defeats index pruning"),
    "RQ210": (Severity.WARNING, "duplicate SELECT column"),
    "RQ211": (Severity.ERROR, "bare attribute not in GROUP BY"),
    "RQ212": (Severity.ERROR, "GROUP BY references an unknown attribute"),
    "RQ213": (Severity.ERROR, "aggregate of an unknown attribute"),
    "RQ214": (Severity.INFO, "GROUP BY without aggregates (DISTINCT)"),
    "RO303": (Severity.WARNING, "retry_backoff without retries"),
    "RO306": (Severity.WARNING, "inflight_limit below per-node pool size"),
    "RO308": (Severity.INFO, "aggregate pushdown disabled"),
    "RO313": (Severity.WARNING, "scheduling knobs with scheduler off"),
    "RO314": (Severity.INFO, "vectorized execution disabled"),
    "RT301": (Severity.ERROR, "incomparable operand types"),
    "RT302": (Severity.ERROR, "function argument type mismatch"),
    "RT303": (Severity.ERROR, "IN/BETWEEN value type mismatch"),
    "RT304": (Severity.ERROR, "aggregate over a non-numeric attribute"),
    "RT305": (Severity.WARNING, "integer SUM may overflow"),
    "RT306": (Severity.WARNING, "literal unrepresentable in attribute type"),
    "RT307": (Severity.WARNING, "literal outside the attribute's range"),
    "RT308": (Severity.INFO, "function result type assumed numeric"),
    "RT309": (Severity.INFO, "scalar UDF falls back to per-row calls"),
    "RW400": (Severity.INFO, "constant folded"),
    "RW401": (Severity.INFO, "comparison canonicalized"),
    "RW402": (Severity.INFO, "NOT pushed inward"),
    "RW403": (Severity.INFO, "BETWEEN expanded to a range conjunction"),
    "RW404": (Severity.INFO, "IN list canonicalized"),
    "RW405": (Severity.INFO, "duplicate term eliminated"),
    "RW406": (Severity.INFO, "subsumed range conjunct merged"),
    "RW407": (Severity.INFO, "neutral or absorbing constant eliminated"),
    "RW408": (Severity.INFO, "contradiction folded to FALSE"),
    "RW409": (Severity.INFO, "term order canonicalized"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str
    severity: Severity
    message: str
    span: Optional[Span] = None
    #: A human-readable suggestion for repairing the finding, when one
    #: can be stated mechanically.
    fix: Optional[str] = None
    #: What was analysed (descriptor path, dataset name, or "query").
    source: Optional[str] = None

    @property
    def title(self) -> str:
        """The registered short title of this diagnostic's code."""
        entry = CODES.get(self.code)
        return entry[1] if entry else self.code

    def format(self, show_source: bool = True) -> str:
        """``source:line:col: severity[CODE]: message`` (parts optional)."""
        prefix = ""
        if show_source and self.source:
            prefix += f"{self.source}:"
        if self.span is not None:
            prefix += f"{self.span.line}:{self.span.column}:"
        text = f"{self.severity}[{self.code}]: {self.message}"
        return f"{prefix} {text}" if prefix else text

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": str(self.severity),
            "title": self.title,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = self.span.to_dict()
        if self.fix is not None:
            out["fix"] = self.fix
        if self.source is not None:
            out["source"] = self.source
        return out


class Collector:
    """Accumulates diagnostics instead of raising on the first one.

    Analyzers call :meth:`emit` with a registered code; the severity
    defaults to the code's registered severity.  ``strict=True`` (the
    ``repro check --strict`` / ``ExecOptions(strict=True)`` mode)
    escalates warnings to errors at *query* time — the collector itself
    always stores the registered severity so output stays stable.
    """

    def __init__(self, source: Optional[str] = None):
        self.source = source
        self.diagnostics: List[Diagnostic] = []

    # -- recording -----------------------------------------------------------

    def emit(
        self,
        code: str,
        message: str,
        span: Optional[Span] = None,
        fix: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        if severity is None:
            entry = CODES.get(code)
            if entry is None:
                raise KeyError(f"unregistered diagnostic code {code!r}")
            severity = entry[0]
        diag = Diagnostic(code, severity, message, span, fix, self.source)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "Collector") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- queries -------------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def first_error(self) -> Optional[Diagnostic]:
        for diag in self.diagnostics:
            if diag.severity is Severity.ERROR:
                return diag
        return None

    def codes(self) -> List[str]:
        """Distinct codes present, in first-appearance order."""
        seen: List[str] = []
        for diag in self.diagnostics:
            if diag.code not in seen:
                seen.append(diag.code)
        return seen

    def sorted(self) -> List[Diagnostic]:
        """Diagnostics in source order (span-less findings last)."""
        return sorted(
            self.diagnostics,
            key=lambda d: (
                d.span is None,
                (d.span.line, d.span.column) if d.span else (0, 0),
            ),
        )

    # -- rendering -----------------------------------------------------------

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )

    def format_text(self) -> str:
        lines = [d.format() for d in self.sorted()]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "source": self.source,
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
        }
        return json.dumps(payload, indent=indent)

    def to_sarif_run(self) -> Dict[str, Any]:
        """One SARIF 2.1.0 ``run`` object for these diagnostics."""
        level = {
            Severity.ERROR: "error",
            Severity.WARNING: "warning",
            Severity.INFO: "note",
        }
        rules = [
            {
                "id": code,
                "shortDescription": {"text": CODES[code][1]},
                "defaultConfiguration": {"level": level[CODES[code][0]]},
            }
            for code in sorted(set(self.codes()))
            if code in CODES
        ]
        results: List[Dict[str, Any]] = []
        for diag in self.sorted():
            result: Dict[str, Any] = {
                "ruleId": diag.code,
                "level": level[diag.severity],
                "message": {"text": diag.message},
            }
            location: Dict[str, Any] = {}
            if diag.source:
                location["physicalLocation"] = {
                    "artifactLocation": {"uri": diag.source}
                }
            if diag.span is not None:
                region: Dict[str, Any] = {
                    "startLine": diag.span.line,
                    "startColumn": diag.span.column,
                }
                if diag.span.end_line:
                    region["endLine"] = diag.span.end_line
                if diag.span.end_column:
                    region["endColumn"] = diag.span.end_column
                location.setdefault("physicalLocation", {})["region"] = region
            if location:
                result["locations"] = [location]
            results.append(result)
        return {
            "tool": {
                "driver": {
                    "name": "repro-check",
                    "informationUri": (
                        "https://example.invalid/repro/docs/diagnostics"
                    ),
                    "rules": rules,
                }
            },
            "results": results,
        }

    def to_sarif(self, indent: Optional[int] = 2) -> str:
        """A complete single-run SARIF 2.1.0 log (for CI annotations)."""
        return json.dumps(sarif_log([self]), indent=indent)


def sarif_log(collectors: List["Collector"]) -> Dict[str, Any]:
    """A SARIF 2.1.0 log document with one run per collector."""
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [collector.to_sarif_run() for collector in collectors],
    }
