"""Answer checks: verdict fields against expected.json, witnesses re-evaluated.

`verdict(query, output)` extracts the fields a query's answer is judged on;
`problems(query, output, expected, chains_of_size)` lists what is wrong with
an answer, and an empty list means the answer is correct.
"""

from __future__ import annotations

from fractions import Fraction

import logic as L


def parse_report(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Split a plain report into `key: value` fields and indented blocks."""
    fields: dict[str, str] = {}
    blocks: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("  ") and current is not None:
            blocks[current].append(line[2:])
            continue
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
            current = None
        elif line.endswith(":"):
            current = line[:-1]
            blocks[current] = []
        else:
            raise ValueError(f"cannot read report line {line!r}")
    return fields, blocks


# The fields each checker compares with the recorded answer.  Witness values
# are left out: a later change may find another witness, and `decide_witness`
# re-checks whichever one comes back.
_VERDICT_FIELDS = {
    "decide": ("outcome", "decided"),
    "bsr": ("outcome", "decided"),
    "herbrand": ("outcome", "decided"),
    "reduce": ("certified", "consistent"),
}
_TABLE_PREFIXES = ("k=", "count", "result", "chains-checked", "size")


def verdict(query, output) -> dict[str, str]:
    """The answer fields of a finished query's (exit code, text) output."""
    code, text = output
    if code != 0:
        return {"exit": str(code)}
    fields, _ = parse_report(text)
    if query.check == "table":
        return {k: v for k, v in fields.items() if k.startswith(_TABLE_PREFIXES)}
    if query.check == "phi_witness":
        return {k: v for k, v in fields.items() if k.startswith("N=")}
    out = {k: fields[k] for k in _VERDICT_FIELDS[query.check] if k in fields}
    if query.check == "reduce":
        failed = [k for k, v in fields.items() if k.startswith("check [") and not v.startswith("pass")]
        out["failed-checks"] = str(len(failed))
    return out


def problems(query, output, expected: dict[str, str], chains_of_size) -> list[str]:
    got = verdict(query, output)
    if "exit" in got:
        return [f"exit code {got['exit']}: {output[1].strip()[:200]}"]
    found = [f"{k}: expected {v!r}, got {got.get(k)!r}"
             for k, v in expected.items() if got.get(k) != v]
    if query.check == "phi_witness":
        found += _phi_witness(query, got)
    if query.check == "decide" and got.get("outcome") in ("member_witness", "refuted"):
        found += _decide_witness(query, output[1], chains_of_size)
    if query.check == "table" and "--tables" in query.argv:
        _, blocks = parse_report(output[1])
        tables = [b for b in blocks if b.startswith("chain ")]
        if str(len(tables)) != got.get("count"):
            found.append(f"{len(tables)} chain tables printed for count {got.get('count')}")
    return found


def _phi_witness(query, got) -> list[str]:
    n = int(query.argv[query.argv.index("--n") + 1])
    wrong = []
    for k in range(1, n + 1):
        closed = Fraction(2 ** k - 1, 2 ** k)
        if got.get(f"N={k}") != str(closed):
            wrong.append(f"N={k}: expected {closed}, got {got.get(f'N={k}')!r}")
    if len(got) != n:
        wrong.append(f"{len(got)} witness rows for N = {n}")
    return wrong


def _chains(spec: str, size: int, chains_of_size):
    kind, _, arg = spec.partition(":")
    k = int(arg)
    if kind == "luk":
        return [L.lukasiewicz(k)] if size == k else []
    if kind == "godel":
        return [L.godel(k)] if size == k else []
    return list(chains_of_size(size)) if 2 <= size <= k else []


def _decide_witness(query, text, chains_of_size) -> list[str]:
    """Re-evaluate the returned witness; its value must meet the set's test."""
    fields, blocks = parse_report(text)
    preds, funcs, _ = L.signature(query.formula)
    try:
        model = L.parse_model(blocks["witness"], {**preds, **funcs})
        value = int(fields["value"])
        size = int(fields["chain-size"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable witness: {exc!r}"]
    candidates = _chains(query.chains, size, chains_of_size)
    if not candidates:
        return [f"witness chain size {size} is not in {query.chains}"]
    top = size - 1
    wants_top = query.set in ("sat1", "tautlt1")
    if wants_top and value != top or not wants_top and value == 0:
        return [f"value {value} does not witness {query.set}"]
    for chain in candidates:
        try:
            if L.evaluate(chain, model, query.formula) == value:
                return []
        except (KeyError, IndexError):
            continue
    return [f"witness does not evaluate to {value} on any size-{size} chain of {query.chains}"]
