from __future__ import annotations

import random
import re
import unicodedata

import pytest

from memomap.corpus import (
    CorpusError,
    Memo,
    SegmenterConfig,
    extract_fragments,
    load_corpus,
    normalize_fragment,
    segment_reference_section,
    split_fragments,
)

from conftest import write_jsonl


PAD = "x" * 30  # keeps toy citations above the minimum fragment length
DEFAULT = SegmenterConfig()


def memo(body: str, memo_id: str = "CAG-00001A") -> Memo:
    return Memo(memo_id=memo_id, title="t", body_text=body)


class TestSegment:
    def test_single_heading(self):
        body = "Intro text.\n\nReferences\n1. Smith J. Cardiac outcomes study example text.\n"
        section = segment_reference_section(memo(body), DEFAULT)
        assert section == "1. Smith J. Cardiac outcomes study example text.\n"

    def test_no_heading_is_none(self):
        assert segment_reference_section(memo("Just text, nothing else.\n"), DEFAULT) is None

    def test_last_of_two_headings_wins(self):
        # Independent oracle: last-index scan over the raw lines.
        body = (
            "Overview\nReferences\nold citation list line one\n\n"
            "Body continues here.\nREFERENCES\nnew citation line A\nnew citation line B\n"
            "Appendix\nappendix line\n"
        )
        lines = body.splitlines(keepends=True)
        last = max(i for i, ln in enumerate(lines) if ln.strip().casefold() == "references")
        stop = next(
            i for i in range(last + 1, len(lines)) if lines[i].strip().casefold() == "appendix"
        )
        expected = "".join(lines[last + 1 : stop])

        section = segment_reference_section(memo(body), DEFAULT)
        assert section == expected
        assert section == "new citation line A\nnew citation line B\n"
        assert section in body  # contiguous substring, always

    def test_heading_match_is_whole_line_and_case_insensitive(self):
        body = "See References for details.\nbibliography\ncitation line\n"
        assert segment_reference_section(memo(body), DEFAULT) == "citation line\n"

    def test_custom_headings(self):
        config = SegmenterConfig(headings=("Works Cited",))
        body = "Works Cited\nsome citation\n"
        assert segment_reference_section(memo(body), config) == "some citation\n"

    def test_empty_heading_list_rejected(self):
        with pytest.raises(CorpusError):
            SegmenterConfig(headings=())


class TestSplit:
    def test_two_numbered_markers(self):
        text = f"1. A {PAD}\n\n2. B {PAD}"
        frags = split_fragments("m", text)
        assert [f.raw_text for f in frags] == [f"A {PAD}", f"B {PAD}"]
        assert [f.ordinal for f in frags] == [0, 1]

    def test_hard_wrap_merges_into_one(self):
        text = "1. Smith J. A very long title that happens\nto wrap across three distinct\nlines. J Med. 2001."
        frags = split_fragments("m", text)
        assert len(frags) == 1
        assert frags[0].raw_text == (
            "Smith J. A very long title that happens to wrap across three distinct lines. J Med. 2001."
        )

    def test_twelve_citations_mixed_markers(self):
        # Hand-labeled split of a mixed-marker reference section.
        text = (
            "1. Adams JQ, Brown TL. Cardiac outcomes after revascularization. N Engl J Med. 2004;350:1123-1130.\n"
            "2. Baker RS. Long-term dialysis survival in elderly cohorts. JAMA. 2001;285:421-429.\n"
            "[3] Chen W, Davis KP. Screening intervals for colorectal neoplasia. Ann Intern Med. 2007;147:612-620.\n"
            "[4] Diaz H. Implantable devices and arrhythmia\n"
            "risk: a registry analysis. Circulation. 2009;119:\n"
            "334-341.\n"
            "• Edwards PL, Fisher A. Amyloid imaging in early dementia. Lancet Neurol. 2012;11:669-678.\n"
            "• Garcia MN. Hepatitis C therapy adherence among veterans. Hepatology. 2005;41:288-295.\n"
            "\n"
            "Harris B, Ito K. Stent thrombosis after late discontinuation. Eur Heart J. 2008;29:1851-1857.\n"
            "\n"
            "Jones CF, Klein V. Spinal decompression outcomes at two years. Spine. 2010;35:1329-1338.\n"
            "9. Lee SH, Moore DW. Glycemic control and microvascular complications. Diabetes Care. 2003;26:2875-2880.\n"
            "10. O'Brien GT. Photodynamic therapy for macular degeneration. Ophthalmology. 2006;113:1151-1160.\n"
            "11. Patel RV, Quinn SJ. Sleep apnea treatment and daytime function. Chest. 2011;139:1322-1330.\n"
            "12. Rossi ED. Counterpulsation therapy in refractory angina. Am J Cardiol. 2002;89:805-810.\n"
        )
        frags = split_fragments("m", text)
        assert len(frags) == 12
        assert frags[0].raw_text.startswith("Adams JQ, Brown TL.")
        assert frags[3].raw_text == (
            "Diaz H. Implantable devices and arrhythmia risk: a registry analysis. "
            "Circulation. 2009;119: 334-341."
        )
        assert frags[6].raw_text.startswith("Harris B, Ito K.")
        assert frags[11].raw_text.startswith("Rossi ED.")
        assert [f.ordinal for f in frags] == list(range(12))

    def test_short_debris_dropped(self):
        text = f"Page 3\n\n1. Real citation body {PAD}\n"
        frags = split_fragments("m", text)
        assert [f.raw_text for f in frags] == [f"Real citation body {PAD}"]

    def test_punctuation_only_fragment_dropped(self):
        text = "-" * 40 + f"\n\n1. Real citation body {PAD}\n"
        frags = split_fragments("m", text)
        assert len(frags) == 1
        assert all(f.normalized_text for f in frags)

    def test_deterministic(self):
        text = f"1. A {PAD}\n2. B {PAD}\n\nC continuation line {PAD}\n"
        assert split_fragments("m", text) == split_fragments("m", text)

    def test_concatenation_is_subsequence_of_section(self):
        text = (
            f"1. Alpha beta gamma delta {PAD}\n"
            f"[2] Epsilon zeta eta theta {PAD}\n"
            f"continuation of the second {PAD}\n\n"
            f"• Iota kappa lambda mu {PAD}\n"
        )
        frags = split_fragments("m", text)
        concat = "".join(c for f in frags for c in f.raw_text if not c.isspace())
        section = "".join(c for c in text if not c.isspace())
        it = iter(section)
        assert all(c in it for c in concat)


class TestNormalize:
    def test_diacritics_punctuation_case(self):
        assert normalize_fragment("Müller, J. (2005)!") == "muller j 2005"

    def test_idempotent(self):
        value = normalize_fragment("Müller, J. (2005)!")
        assert normalize_fragment(value) == value

    def test_idempotent_on_random_strings(self):
        rng = random.Random(1234)
        pool = "abcXYZ éüØß0123!?.,;:()[]-•—'\""
        for _ in range(200):
            s = "".join(rng.choice(pool) for _ in range(rng.randint(1, 60)))
            once = normalize_fragment(s)
            assert normalize_fragment(once) == once

    def test_matches_character_table_oracle(self):
        # Independent oracle: map each character on its own, then collapse.
        def oracle(s: str) -> str:
            out = []
            for ch in s:
                for d in unicodedata.normalize("NFKD", ch):
                    if unicodedata.combining(d):
                        continue
                    for c in d.casefold():
                        out.append(c if ("a" <= c <= "z" or "0" <= c <= "9") else " ")
            return " ".join("".join(out).split())

        rng = random.Random(99)
        pool = (
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            " \t.,;:!?()[]{}<>/'\"-–—àéîöüñç"
            "ÅØßİşćž²•"
        )
        for _ in range(100):
            s = "".join(rng.choice(pool) for _ in range(rng.randint(1, 80)))
            assert normalize_fragment(s) == oracle(s)


    @staticmethod
    def nfkd_path(s: str) -> str:
        # The general path of normalize_fragment, applied to every input.
        decomposed = unicodedata.normalize("NFKD", s)
        stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
        return re.sub(r"[^a-z0-9]+", " ", stripped.casefold()).strip()

    def test_ascii_matches_nfkd_path(self):
        for code in range(128):
            for s in (chr(code), f"Ab{chr(code)}9z", f"{chr(code)} X{chr(code)}"):
                assert normalize_fragment(s) == self.nfkd_path(s), repr(s)
        rng = random.Random(7)
        for _ in range(5000):
            s = "".join(chr(rng.randrange(128)) for _ in range(rng.randint(0, 40)))
            assert normalize_fragment(s) == self.nfkd_path(s), repr(s)

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("Müller", "muller"),
            ("\ufb01brosis", "fibrosis"),  # "fi" ligature
            ("\uff12\uff10\uff10\uff15", "2005"),  # full-width digits
            ("e\u0301tude", "etude"),  # combining acute accent
            ("STRASSE Straße", "strasse strasse"),
        ],
    )
    def test_non_ascii_folds(self, raw, expected):
        assert normalize_fragment(raw) == expected


class TestLoadCorpus:
    def test_jsonl_roundtrip(self, tmp_path):
        path = write_jsonl(
            tmp_path / "memos.jsonl",
            [
                {"memo_id": "CAG-2", "title": "B", "decision_date": "2004-13-01", "body_text": "x"},
                {"memo_id": "CAG-1", "title": "A", "decision_date": None, "body_text": "y"},
            ],
        )
        # decision_date is a key like any other that is not a field: ignored.
        assert load_corpus(path) == [Memo("CAG-2", "B", "x"), Memo("CAG-1", "A", "y")]

    def test_directory_mode(self, tmp_path):
        (tmp_path / "CAG-7.txt").write_text("Memo Title Line\n\nBody.\n", encoding="utf-8")
        memos = load_corpus(tmp_path)
        assert memos[0].memo_id == "CAG-7"
        assert memos[0].title == "Memo Title Line"

    def test_duplicate_memo_id_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "memos.jsonl",
            [
                {"memo_id": "CAG-1", "body_text": "x"},
                {"memo_id": "CAG-1", "body_text": "y"},
            ],
        )
        with pytest.raises(CorpusError, match="duplicate memo_id"):
            load_corpus(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_corpus(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("mode", ["jsonl", "directory"])
    def test_empty_body_rejected(self, tmp_path, mode):
        # Named where it is: a memo without text could only fail later, unlocated.
        if mode == "jsonl":
            rows = [{"memo_id": "CAG-1", "body_text": "x"}, {"memo_id": "EMPTY-1", "title": "t"}]
            path = write_jsonl(tmp_path / "memos.jsonl", rows)
            message = f"{path}:2: memo 'EMPTY-1' has empty body_text"
        else:
            path = tmp_path / "memos"
            path.mkdir()
            (path / "CAG-1.txt").write_text("Title\n", encoding="utf-8")
            (path / "EMPTY-1.txt").write_bytes(b"")
            message = f"{path / 'EMPTY-1.txt'}: memo has empty body_text"
        with pytest.raises(CorpusError) as caught:
            load_corpus(path)
        assert str(caught.value) == message


def test_extract_fragments_end_to_end():
    body = (
        "Decision summary text.\n\nReferences\n"
        f"1. First citation with enough text {PAD}\n"
        f"2. Second citation with enough text {PAD}\nAppendix\nignored\n"
    )
    frags = extract_fragments(memo(body), DEFAULT)
    assert [f.ordinal for f in frags] == [0, 1]
    assert all(f.memo_id == "CAG-00001A" for f in frags)


def test_extract_fragments_without_section_is_empty():
    assert extract_fragments(memo("No heading here at all.\n"), DEFAULT) == []
