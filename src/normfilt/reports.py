"""Report payloads for the CLI, and their rendering as json, csv or markdown.

Payloads are plain dicts with a schema tag; rendering is deterministic
(sorted keys, fixed column orders) so repeated runs are byte-identical. The
csv and markdown renderers live in `renderers`; json is written here, with
no `json` import.
"""

from __future__ import annotations

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


def _fit_dict(fit, error=None, key="e"):
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
        "normal": {**_fit_dict(analysis.normal_fit), "g_s": analysis.g_s,
                   "basis": analysis.basis,
                   "h": list(analysis.h) if analysis.h is not None else None},
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
        out["sally"] = _fit_dict(analysis.sally_fit, key="s")
    return out


def sally_payload(analysis) -> dict:
    """Sally report of the printed lengths and the ideal's fit; needs a reduction."""
    if analysis.reduction is None:
        raise PreconditionError(
            "Sally module lengths need a certified reduction; none is available"
        )
    return {
        "schema": SALLY_SCHEMA,
        **_header(analysis),
        "values": list(analysis.sally_values),
        **_fit_dict(analysis.sally_fit, key="s"),
        "s0_from_e": analysis.sally_fit.e[0],
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


# the escapes of json's ensure_ascii within ASCII: a backslash and a letter
# where json has one, else \u00XX for the control characters and DEL
_ESCAPES = {i: f"\\u{i:04x}" for i in (*range(0x20), 0x7f)} | {
    ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _unicode_escape(c: str) -> str:
    """\\uXXXX of a character past ASCII; a surrogate pair past the BMP."""
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def _string(s: str) -> str:
    if not (s.isascii() and s.isprintable() and '"' not in s and "\\" not in s):
        s = s.translate(_ESCAPES)
        if not s.isascii():
            s = "".join(c if c.isascii() else _unicode_escape(c) for c in s)
    return f'"{s}"'


def _emit(x, indent: str, out: list) -> None:
    """Append to out the text of x that json.dumps(x, indent=2, sort_keys=True)
    writes at this indent. Payloads hold only dicts with str keys, lists,
    tuples, str, int, bool and None; anything else raises TypeError."""
    if isinstance(x, str):
        out.append(_string(x))
    elif x is None or x is True or x is False:
        out.append(_CONSTANTS[x])
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        if not all(isinstance(key, str) for key in x):
            raise TypeError("payload keys must be str")
        inner = indent + "  "
        sep, more = "{\n" + inner, ",\n" + inner
        for key in sorted(x):
            out += (sep, _string(key), ": ")
            _emit(x[key], inner, out)
            sep = more
        out.append("\n" + indent + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner = indent + "  "
        sep, more = "[\n" + inner, ",\n" + inner
        for item in x:
            out.append(sep)
            _emit(item, inner, out)
            sep = more
        out.append("\n" + indent + "]" if x else "[]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def render(payload: dict, fmt: str) -> str:
    """Render a payload as json, csv, or md text; json as json.dumps(payload,
    indent=2, sort_keys=True) writes it, plus a newline."""
    if fmt == "json":
        out = []
        _emit(payload, "", out)
        out.append("\n")
        return "".join(out)
    from .renderers import RENDERERS  # json needs no renderer module

    return RENDERERS[payload["schema"]](payload, fmt)
