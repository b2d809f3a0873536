"""csv and markdown renderings of the report payloads, one renderer per schema.

`reports.render` imports this module only for a format other than json.
"""

from __future__ import annotations

import io

from .reports import CHECK_SCHEMA, COEFFS_SCHEMA, CORPUS_SCHEMA, SALLY_SCHEMA, TABLE_SCHEMA

TABLE_LABELS = {
    "n": "n",
    "normal": "λ(R/Ī^(n+1))",
    "adic": "λ(R/I^(n+1))",
    "jgood": "λ(R/J^n·Ī)",
    "sally": "λ(S̄_n)",
}


def _md_table(headers, rows) -> list[str]:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    out.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return out


def _csv_text(rows) -> str:
    import csv  # only the csv renderer pays for this import

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _md_header(payload) -> list[str]:
    lines = [f"# {payload['entry']}", "", f"- ring: {payload['ring']}",
             f"- ideal: ({', '.join(payload['ideal'])})"]
    if payload.get("reduction") is not None:
        lines.append(
            f"- reduction J = ({', '.join(payload['reduction'])}) "
            f"[{payload['reduction_source']}]"
        )
    else:
        lines.append("- reduction: none certified")
    lines.append(f"- nmax: {payload['nmax']}")
    return lines


def _render_table(payload, fmt) -> str:
    if fmt == "csv":
        return _csv_text([payload["columns"], *payload["rows"]])
    headers = [TABLE_LABELS[c] for c in payload["columns"]]
    lines = _md_header(payload) + [""] + _md_table(headers, payload["rows"])
    return "\n".join(lines) + "\n"


def _coeff_rows(payload):
    rows = [("e0", payload["e0"])]
    for i, c in enumerate(payload["normal"].get("e", [])):
        if i:
            rows.append((f"e{i}_bar", c))
    if "g_s" in payload["normal"]:
        rows.append(("g_s", payload["normal"]["g_s"]))
    if "error" not in payload["normal"]:
        rows.append(("normal_stable_from", payload["normal"]["stable_from"]))
    for i, c in enumerate(payload["adic"].get("e", [])):
        if i:
            rows.append((f"e{i}", c))
    if "error" in payload["adic"]:
        rows.append(("adic_fit", payload["adic"]["error"]))
    if "sally" in payload:
        for i, c in enumerate(payload["sally"].get("s", [])):
            rows.append((f"s{i}_bar", c))
        if "error" in payload["sally"]:
            rows.append(("sally_fit", payload["sally"]["error"]))
    for key in ("lambda_R_I1", "lambda_I1_J", "lambda_I2_JI1", "rn",
                "mu_ideal", "mu_maximal", "type"):
        if key in payload and payload[key] is not None:
            rows.append((key, payload[key]))
    if "valabrega_valla" in payload:
        vv = payload["valabrega_valla"]
        if vv["first_failure"]:
            n, i, elem = vv["first_failure"]
            rows.append(("valabrega_valla", f"fails at degree {n} prefix {i} ({elem})"))
        elif vv["certified_cm"]:
            rows.append(("valabrega_valla", "certified Cohen-Macaulay"))
        else:
            rows.append((
                "valabrega_valla",
                f"inconclusive (checked to {vv['checked_upto']}, "
                f"need {vv['required_horizon']})",
            ))
    return rows


MD_COEFF_LABELS = {
    "e0": "e₀", "e1_bar": "ē₁", "e2_bar": "ē₂", "e3_bar": "ē₃", "e4_bar": "ē₄",
    "e1": "e₁", "e2": "e₂", "e3": "e₃", "e4": "e₄",
    "s0_bar": "s̄₀", "s1_bar": "s̄₁", "s2_bar": "s̄₂", "s3_bar": "s̄₃",
    "g_s": "g_s", "rn": "r", "type": "t(R)",
    "lambda_R_I1": "λ(R/Ī)", "lambda_I1_J": "λ(Ī/J)", "lambda_I2_JI1": "λ(Ī²/JĪ)",
    "mu_ideal": "μ(I)", "mu_maximal": "μ(m)",
}


def _render_coeffs(payload, fmt) -> str:
    rows = _coeff_rows(payload)
    if fmt == "csv":
        return _csv_text([("quantity", "value"), *rows])
    md_rows = [(MD_COEFF_LABELS.get(k, k), v) for k, v in rows]
    lines = _md_header(payload) + [""] + _md_table(("quantity", "value"), md_rows)
    return "\n".join(lines) + "\n"


def _render_sally(payload, fmt) -> str:
    if fmt == "csv":
        rows = [("n", "sally")] + [(n, v) for n, v in enumerate(payload["values"])]
        rows += [(f"s{i}_bar", c) for i, c in enumerate(payload["s"])]
        rows.append(("stable_from", payload["stable_from"]))
        return _csv_text(rows)
    lines = _md_header(payload) + [""]
    lines += _md_table(("n", "λ(S̄_n)"), list(enumerate(payload["values"])))
    lines.append("")
    coeff_rows = [(MD_COEFF_LABELS.get(f"s{i}_bar", f"s{i}_bar"), c)
                  for i, c in enumerate(payload["s"])]
    coeff_rows.append(("stable from", payload["stable_from"]))
    lines += _md_table(("quantity", "value"), coeff_rows)
    return "\n".join(lines) + "\n"


def _verdict_rows(verdicts):
    rows = []
    for v in verdicts:
        witness = "; ".join(
            f"degree {w['degree']}: {w['element']}" for w in v["witnesses"]
        )
        rows.append((v["check"], v["conclusion"], v["hypotheses_met"], v["detail"], witness))
    return rows


def _render_check(payload, fmt) -> str:
    if fmt == "csv":
        return _csv_text([
            ("check", "conclusion", "hypotheses_met", "detail", "witnesses"),
            *_verdict_rows(payload["verdicts"]),
        ])
    lines = _md_header(payload) + [""]
    summary = ", ".join(f"{k}: {v}" for k, v in payload["summary"].items())
    lines.append(f"Summary: {summary}")
    lines.append("")
    lines += _md_table(
        ("check", "conclusion", "detail"),
        [(c, conc, (d + (f" [witness {w}]" if w else "")))
         for c, conc, _, d, w in _verdict_rows(payload["verdicts"])],
    )
    return "\n".join(lines) + "\n"


def _error_text(record) -> str:
    return f"error (exit code {record['exit_code']}): {record['error']}"


def _render_corpus(payload, fmt) -> str:
    if fmt == "csv":
        rows = [("file", "entry", "check", "conclusion", "detail")]
        for e in payload["entries"]:
            if "error" in e:
                rows.append((e["file"], "", "", "error", _error_text(e)))
            for v in e.get("verdicts", ()):
                rows.append((e["file"], e["entry"], v["check"], v["conclusion"], v["detail"]))
        return _csv_text(rows)
    lines = ["# corpus report", ""]
    summary = ", ".join(f"{k}: {v}" for k, v in payload["summary"].items())
    lines.append(f"Overall: {summary}")
    for e in payload["entries"]:
        lines.append("")
        if "error" in e:
            lines += [f"## {e['file']}", "", _error_text(e)]
            continue
        lines.append(f"## {e['entry']} ({e['file']})")
        lines.append("")
        lines += _md_table(
            ("check", "conclusion"),
            [(v["check"], v["conclusion"]) for v in e["verdicts"]],
        )
    return "\n".join(lines) + "\n"


RENDERERS = {
    TABLE_SCHEMA: _render_table,
    COEFFS_SCHEMA: _render_coeffs,
    SALLY_SCHEMA: _render_sally,
    CHECK_SCHEMA: _render_check,
    CORPUS_SCHEMA: _render_corpus,
}
