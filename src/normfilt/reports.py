"""Report payloads for the CLI, and their rendering as json, csv or markdown.

Payloads are plain dicts with a schema tag; rendering is deterministic
(sorted keys, fixed column orders) so repeated runs are byte-identical. The
csv and markdown renderers live in `renderers`.
"""

from __future__ import annotations

import json

from .errors import PreconditionError

TABLE_SCHEMA = "normfilt.table/1"
COEFFS_SCHEMA = "normfilt.coeffs/1"
SALLY_SCHEMA = "normfilt.sally/1"
CHECK_SCHEMA = "normfilt.check/1"
CORPUS_SCHEMA = "normfilt.corpus/1"


def _ideal_strs(analysis, ideal):
    return [analysis.backend.element_str(g) for g in ideal.gens]


def _header(analysis) -> dict:
    return {
        "entry": analysis.name,
        "ring": analysis.backend.describe(),
        "dim": analysis.dim,
        "nmax": analysis.nmax,
        "ideal": _ideal_strs(analysis, analysis.ideal),
        "reduction": (
            _ideal_strs(analysis, analysis.reduction)
            if analysis.reduction is not None
            else None
        ),
        "reduction_source": analysis.reduction_source,
    }


def table_payload(analysis) -> dict:
    columns = ["n", "normal", "adic"]
    if analysis.reduction is not None:
        columns += ["jgood", "sally"]
    rows = []
    for n in range(analysis.nmax + 1):
        row = [n, analysis.normal_values[n], analysis.adic_values[n]]
        if analysis.reduction is not None:
            row += [analysis.jgood_values[n], analysis.sally_values[n]]
        rows.append(row)
    return {"schema": TABLE_SCHEMA, **_header(analysis), "columns": columns, "rows": rows}


def _fit_dict(fit, error, key="e"):
    if fit is None:
        return {"error": str(error)}
    return {key: list(fit.e), "stable_from": fit.stable_from}


def coeffs_payload(analysis) -> dict:
    """Coefficient report; requires the normal fit (horizon error otherwise)."""
    if analysis.normal_fit is None:
        raise analysis.normal_fit_error
    out = {
        "schema": COEFFS_SCHEMA,
        **_header(analysis),
        "e0": analysis.e0,
        "normal": {**_fit_dict(analysis.normal_fit, None), "g_s": analysis.g_s},
        "adic": _fit_dict(analysis.adic_fit, analysis.adic_fit_error),
        "lambda_R_I1": analysis.lam_R_I1,
        "mu_ideal": analysis.mu_ideal,
        "mu_maximal": analysis.mu_maximal,
        "type": analysis.backend.sg.type,
        "type_source": analysis.backend.type_source,
    }
    if analysis.reduction is not None:
        out["lambda_I1_J"] = analysis.lam_I1_J
        out["lambda_I2_JI1"] = analysis.sally_values[1]
        out["rn"] = analysis.rn
        if analysis.rn_error is not None:
            out["rn_note"] = str(analysis.rn_error)
        vv = analysis.vv
        out["valabrega_valla"] = {
            "certified_cm": vv.certified_cm,
            "inconclusive": vv.inconclusive,
            "first_failure": list(vv.first_failure) if vv.first_failure else None,
            "checked_upto": vv.checked_upto,
            "required_horizon": vv.required_horizon,
        }
        out["sally"] = _fit_dict(analysis.sally_fit, analysis.sally_fit_error, key="s")
    return out


def sally_payload(analysis) -> dict:
    """Sally report; needs a reduction and a fit, else raises the fit's error."""
    if analysis.reduction is None:
        raise PreconditionError(
            "Sally module lengths need a certified reduction; none is available"
        )
    if analysis.sally_fit is None:
        raise analysis.sally_fit_error
    return {
        "schema": SALLY_SCHEMA,
        **_header(analysis),
        "values": list(analysis.sally_values),
        **_fit_dict(analysis.sally_fit, None, key="s"),
        "s0_from_e": (
            analysis.normal_fit.e[1] - analysis.e0 + analysis.lam_R_I1
            if analysis.normal_fit is not None
            else None
        ),
    }


def check_payload(analysis, verdicts) -> dict:
    summary = {}
    for v in verdicts:
        summary[v.conclusion] = summary.get(v.conclusion, 0) + 1
    return {
        "schema": CHECK_SCHEMA,
        **_header(analysis),
        "numbers": dict(sorted(analysis.base_numbers().items())),
        "verdicts": [v.to_dict() for v in verdicts],
        "summary": dict(sorted(summary.items())),
    }


def error_record(exit_code: int, exc: Exception) -> dict:
    """Corpus entry for a file that could not be checked."""
    return {"error": str(exc), "exit_code": exit_code}


def corpus_payload(entries) -> dict:
    """entries: list of (file_name, check payload or error record)."""
    total = {}
    out_entries = []
    for file_name, payload in entries:
        for k, v in payload.get("summary", {}).items():
            total[k] = total.get(k, 0) + v
        out_entries.append({"file": file_name, **payload})
    return {
        "schema": CORPUS_SCHEMA,
        "entries": out_entries,
        "summary": dict(sorted(total.items())),
    }


def render(payload: dict, fmt: str) -> str:
    """Render a payload as json, csv, or md text."""
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    from .renderers import RENDERERS  # json needs no renderer module

    return RENDERERS[payload["schema"]](payload, fmt)
