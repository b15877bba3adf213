"""The golden report corpus in tests/golden/, made by tests/golden_corpus.py.

Under the numpy, BLAS and machine architecture the corpus records, every
case, the frozen theta_hat entry and the certificate entry must match it
byte for byte.  Under any other, another BLAS may round differently:
numbers are then compared at relative tolerance RTOL and absolute tolerance
ATOL, sha256 digests of bytes not at all, and everything else (keys,
lengths, strings, booleans, exit codes, stderr) exactly.
"""
import json
import math

import pytest

import golden_corpus as corpus

RTOL = 1e-6
ATOL = 1e-9

EXACT = corpus.environment() == json.loads(
    (corpus.GOLDEN_DIR / corpus.ENVIRONMENT_FILE).read_text()
)


def _assert_close(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        same = got == want or (math.isnan(got) and math.isnan(want))
        assert same or math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (
            f"{where}: {got!r} vs {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _numbers(text: str) -> dict:
    """A case's corpus entry with its trials CSV split into cells, numbers
    as floats, for the comparison at tolerance."""
    entry = json.loads(text)
    if entry["trials_csv"] is not None:
        entry["trials_csv"] = [
            [_cell(c) for c in line.split(",")] for line in entry["trials_csv"].splitlines()
        ]
    return entry


def _assert_case_matches(got: str, want: str):
    if EXACT:
        assert got == want
    else:
        _assert_close(_numbers(got), _numbers(want))


@pytest.mark.parametrize("case", corpus.CASES, ids=lambda case: case.name)
def test_case_matches_corpus(case, tmp_path):
    want = (corpus.GOLDEN_DIR / f"{case.name}.json").read_text()
    _assert_case_matches(corpus.run_case(case, tmp_path), want)


def test_frozen_theta_hat_matches_corpus():
    want = (corpus.GOLDEN_DIR / corpus.FROZEN_FILE).read_text()
    got = corpus.frozen_theta_hats()
    if EXACT:
        assert corpus._dump(got) == want
    else:
        want = json.loads(want)
        del got["sha256"], want["sha256"]
        _assert_close(got, want)


def _without_digests(entry):
    if isinstance(entry, dict):
        return {k: _without_digests(v) for k, v in entry.items() if not k.endswith("sha256")}
    if isinstance(entry, list):
        return [_without_digests(v) for v in entry]
    return entry


def test_certificates_match_corpus():
    want = (corpus.GOLDEN_DIR / corpus.CERTIFICATE_FILE).read_text()
    got = corpus.certificates()
    if EXACT:
        assert corpus._dump(got) == want
    else:
        _assert_close(_without_digests(got), _without_digests(json.loads(want)))


def test_every_corpus_file_has_a_case():
    names = {f"{case.name}.json" for case in corpus.CASES}
    names |= {corpus.ENVIRONMENT_FILE, corpus.FROZEN_FILE, corpus.CERTIFICATE_FILE, corpus.CSV_FILE}
    assert {path.name for path in corpus.GOLDEN_DIR.iterdir()} == names


def test_tolerance_comparison_tells_rounding_from_drift():
    entry = json.loads((corpus.GOLDEN_DIR / "plain_simulate.json").read_text())
    want = json.dumps(entry)
    mom = entry["report"]["aggregate"]["mom_excess"]
    for scale, close in ((1 + 1e-9, True), (1 + 1e-3, False)):
        moved = json.loads(want)
        moved["report"]["aggregate"]["mom_excess"]["median"] = mom["median"] * scale
        if close:
            _assert_close(_numbers(json.dumps(moved)), _numbers(want))
        else:
            with pytest.raises(AssertionError, match=r"mom_excess\.median"):
                _assert_close(_numbers(json.dumps(moved)), _numbers(want))


def test_moved_paths_name_each_moved_entry():
    old = {"a": {"b": [1, 2.0], "c": "x", "f": None}, "d": [1], "g": 1}
    new = {"a": {"b": [1, 2.5], "c": "x", "e": None}, "d": [1, 2], "g": 1.0}
    assert list(corpus.moved_paths(old, new)) == [
        ("$.a.b[1]", 2.0, 2.5),
        ("$.a.e", corpus.MISSING, None),
        ("$.a.f", None, corpus.MISSING),
        ("$.d", [1], [1, 2]),
        ("$.g", 1, 1.0),
    ]
    assert list(corpus.moved_paths(old, json.loads(json.dumps(old)))) == []
