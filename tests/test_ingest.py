"""Transcript parsing, sentence segmentation, and corpus round-trips."""

import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import exact
from oracle_ingest import oracle_parse_transcript, oracle_segment_sentences

from aiblob.errors import ParseError, ValidationError
from aiblob.ingest import (
    Sentence,
    corpus_lines,
    export_corpus,
    load_corpus,
    parse_transcript,
    segment_file,
    segment_sentences,
    sentence_id_for,
)
from aiblob.util import record_columns, write_columns


def doc_bytes(words, video_id="vid001", language="it"):
    return json.dumps({
        "video_id": video_id,
        "title": "Telegiornale",
        "source_uri": f"media/{video_id}.mp4",
        "language": language,
        "words": [{"w": w, "s": s, "e": e} for w, s, e in words],
    }).encode("utf-8")


class TestParseTranscript:
    def test_zero_words(self):
        doc = parse_transcript(doc_bytes([]))
        assert doc.words == []
        assert doc.video_id == "vid001"

    def test_single_word_passthrough(self):
        doc = parse_transcript(doc_bytes([("Buonasera.", 1.0, 1.6)]))
        assert len(doc.words) == 1
        assert doc.words[0] == "Buonasera."
        assert doc.starts[0] == 1.0
        assert doc.ends[0] == 1.6

    def test_non_monotone_times_name_the_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            parse_transcript(doc_bytes([("a.", 2.0, 2.5), ("b.", 1.0, 1.5)]))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_transcript(b'{"video_id": "x", ')

    def test_missing_field(self):
        payload = {"video_id": "x", "title": "t", "language": "it", "words": []}
        with pytest.raises(ParseError, match="source_uri"):
            parse_transcript(json.dumps(payload).encode())

    def test_word_with_internal_whitespace(self):
        with pytest.raises(ValidationError, match="whitespace"):
            parse_transcript(doc_bytes([("due parole", 0.0, 1.0)]))

    def test_word_ending_before_start(self):
        with pytest.raises(ValidationError, match="ends at"):
            parse_transcript(doc_bytes([("ciao", 2.0, 1.0)]))

    def test_negative_start(self):
        with pytest.raises(ValidationError, match="negative"):
            parse_transcript(doc_bytes([("ciao", -0.5, 1.0)]))

    def test_empty_video_id(self):
        with pytest.raises(ValidationError, match="video_id"):
            parse_transcript(doc_bytes([], video_id=""))

    @pytest.mark.parametrize("start,end", [
        (float("nan"), 1.0), (0.0, float("nan")), (0.0, float("inf")), (0.0, 10**400),
        # float() rounds this int down to the largest float instead of overflowing.
        (0.0, int(sys.float_info.max) + 1),
    ])
    def test_non_finite_or_overflowing_time_rejected(self, start, end):
        with pytest.raises(ParseError, match="finite"):
            parse_transcript(doc_bytes([("ciao", start, end)]))


    @pytest.mark.parametrize("field", ["title", "source_uri", "language"])
    def test_field_with_a_lone_surrogate_rejected(self, field):
        payload = {**json.loads(doc_bytes([])), field: "rotto \udc80"}
        message = (f"^transcript field '{field}' must be a string without lone surrogates, "
                   r"got 'rotto \\udc80'$")
        with pytest.raises(ParseError, match=message):
            parse_transcript(json.dumps(payload).encode())

    @pytest.mark.parametrize("words", [None, {}, "Ciao.", 3])
    def test_words_that_are_not_a_list_rejected(self, words):
        payload = {**json.loads(doc_bytes([])), "words": words}
        with pytest.raises(ParseError, match="^transcript field 'words' must be a list$"):
            parse_transcript(json.dumps(payload).encode())


class TestSegmentSentences:
    @pytest.mark.parametrize("min_chars", [0, -3])
    def test_min_chars_below_one_rejected(self, min_chars):
        doc = parse_transcript(doc_bytes([("Ciao.", 0.0, 0.5)]))
        message = f"^min_chars must be positive, got {min_chars}$"
        with pytest.raises(ValidationError, match=message):
            segment_sentences(doc, min_chars=min_chars)

    def test_three_sentence_split(self):
        # Hand-applied splitting rule: break after '.', '?' and keep word times.
        doc = parse_transcript(doc_bytes([
            ("Ciao.", 0.0, 0.4),
            ("Come", 0.5, 0.8),
            ("stai?", 0.9, 1.2),
            ("Bene.", 1.5, 1.9),
        ]))
        result = segment_sentences(doc, min_chars=1)
        assert [(s.text, s.start_s, s.end_s) for s in result] == [
            ("Ciao.", 0.0, 0.4),
            ("Come stai?", 0.5, 1.2),
            ("Bene.", 1.5, 1.9),
        ]
        assert [s.ordinal for s in result] == [0, 1, 2]

    def test_empty_doc(self):
        doc = parse_transcript(doc_bytes([]))
        assert segment_sentences(doc) == []

    def test_trailing_words_without_punctuation(self):
        doc = parse_transcript(doc_bytes([
            ("Solo", 0.0, 0.3), ("una", 0.4, 0.6), ("frase", 0.7, 1.1),
        ]))
        result = segment_sentences(doc, min_chars=1)
        assert len(result) == 1
        assert result[0].text == "Solo una frase"
        assert result[0].start_s == 0.0
        assert result[0].end_s == 1.1

    def test_abbreviations_do_not_split(self):
        doc = parse_transcript(doc_bytes([
            ("Il", 0.0, 0.1), ("Sig.", 0.2, 0.4), ("Rossi", 0.5, 0.9),
            ("parla.", 1.0, 1.4),
        ]))
        result = segment_sentences(doc, min_chars=1)
        assert [s.text for s in result] == ["Il Sig. Rossi parla."]

    def test_short_fragments_merge_forward(self):
        doc = parse_transcript(doc_bytes([
            ("Sì.", 0.0, 0.2),
            ("Adesso", 0.3, 0.7), ("parliamo", 0.8, 1.2), ("noi.", 1.3, 1.6),
        ]))
        result = segment_sentences(doc, min_chars=12)
        assert [s.text for s in result] == ["Sì. Adesso parliamo noi."]
        assert result[0].start_s == 0.0
        assert result[0].end_s == 1.6

    def test_short_last_fragment_merges_backward(self):
        doc = parse_transcript(doc_bytes([
            ("Una", 0.0, 0.2), ("lunga", 0.3, 0.7), ("frase", 0.8, 1.2),
            ("completa.", 1.3, 1.9),
            ("Fine.", 2.0, 2.4),
        ]))
        result = segment_sentences(doc, min_chars=12)
        assert [s.text for s in result] == ["Una lunga frase completa. Fine."]

    def test_single_short_sentence_kept(self):
        doc = parse_transcript(doc_bytes([("Sì.", 0.0, 0.2)]))
        result = segment_sentences(doc, min_chars=12)
        assert [s.text for s in result] == ["Sì."]

    def test_ellipsis_splits(self):
        doc = parse_transcript(doc_bytes([
            ("Mah…", 0.0, 0.5), ("vedremo", 0.6, 1.0), ("domani.", 1.1, 1.6),
        ]))
        result = segment_sentences(doc, min_chars=1)
        assert [s.text for s in result] == ["Mah…", "vedremo domani."]

    def test_sentence_id_is_truncated_sha256(self):
        doc = parse_transcript(doc_bytes([("Buonasera.", 1.0, 1.6)]))
        [sentence] = segment_sentences(doc, min_chars=1)
        expected = hashlib.sha256("vid001\x1f0\x1fBuonasera.".encode()).digest()[:16].hex()
        assert sentence.sentence_id == expected
        assert sentence.sentence_id == sentence_id_for("vid001", 0, "Buonasera.")
        assert len(sentence.sentence_id) == 32

    @given(
        words=st.lists(
            st.tuples(
                st.text(alphabet="abcdef", min_size=1, max_size=6),
                st.sampled_from(["", ".", "!", "?", "…", ""]),
            ),
            min_size=1,
            max_size=40,
        ),
        min_chars=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=120, deadline=None)
    def test_segmentation_is_lossless(self, words, min_chars):
        tokens = []
        t = 0.0
        for base, punct in words:
            tokens.append((base + punct, round(t, 2), round(t + 0.3, 2)))
            t += 0.5
        doc = parse_transcript(doc_bytes(tokens))
        result = segment_sentences(doc, min_chars=min_chars)

        # Every word lands in exactly one sentence; nothing dropped or duplicated.
        assert " ".join(s.text for s in result) == " ".join(doc.words)
        # Ordinals contiguous from zero.
        assert [s.ordinal for s in result] == list(range(len(result)))
        # Time boundaries coincide with word boundaries from the source.
        starts = set(doc.starts)
        ends = set(doc.ends)
        for s in result:
            assert s.start_s in starts
            assert s.end_s in ends
            assert s.start_s < s.end_s

    def test_determinism(self):
        raw = doc_bytes([("Ciao.", 0.0, 0.4), ("Come", 0.5, 0.8), ("stai?", 0.9, 1.2)])
        first = segment_sentences(parse_transcript(raw))
        second = segment_sentences(parse_transcript(raw))
        assert first == second


MAX = sys.float_info.max
WHITESPACE = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000"]
NOT_A_NUMBER = [True, False, None, "1.0", [1.0], float("nan"), float("inf"), float("-inf"),
                10**400, -(10**400), int(MAX) + 1, -int(MAX) - 1]
NOT_AN_OBJECT = [[], ["w", "s", "e"], "w", None, 0, True]
NOT_A_TEXT = [None, "", 5, True, ["a"], {"w": "a"}]
# Lone surrogates, which only a JSON \u escape puts in a transcript.
SURROGATES = ["\ud800", "\udbff", "\udc80", "\udfff"]
WORD_TEXTS = st.one_of(
    st.sampled_from(["Ciao.", "Sig.", "prof.", "(ecc.)", "ING.", "Mah…", "perché?", "Sì!",
                     ".", "…", "?!", "on.", "là", "«Bene»."]),
    st.text(min_size=1, max_size=8).filter(lambda text: text.split() == [text]),
)
# Times: ints and floats, with zero steps (ties), -0.0 and values near the top
# of the float range.
BASE_TIMES = st.one_of(st.integers(0, 10**6), st.floats(0, 1e6),
                       st.sampled_from([-0.0, 0, 1e308, int(MAX) // 2, MAX / 2, int(MAX)]))
STEPS = st.one_of(st.sampled_from([0, 0.0]), st.integers(0, 5), st.floats(0, 5))


@st.composite
def valid_words(draw, min_size=0):
    def later(t):
        return min(t + draw(STEPS), MAX)  # an int past MAX is not a valid time

    words = []
    t = draw(BASE_TIMES)
    for _ in range(draw(st.integers(min_size, 30))):
        words.append({"w": draw(WORD_TEXTS), "s": t, "e": later(t)})
        t = later(t)
    return words


def _fault(draw, kind, words, i):
    """Break rule ``kind`` at word i and at no other word."""
    entry = dict(words[i])
    if kind == "object":
        return draw(st.sampled_from(NOT_AN_OBJECT))
    if kind == "text":
        value = draw(st.sampled_from(NOT_A_TEXT + ["missing"]))
    elif kind in ("whitespace", "surrogate"):
        text = entry["w"]
        cut = draw(st.integers(0, len(text)))
        value = text[:cut] + draw(st.sampled_from(WHITESPACE if kind == "whitespace"
                                                  else SURROGATES)) + text[cut:]
    elif kind in ("start", "end"):
        value = draw(st.sampled_from(NOT_A_NUMBER + ["missing"]))
    elif kind == "negative":
        value = draw(st.sampled_from([-1, -0.5, -1e-300, -MAX]))
    elif kind == "order":
        # Ends before it starts, by at least half the start or 0.5 s.
        value = entry["s"] - draw(st.sampled_from([1, 0.5])) * max(1, abs(entry["s"]))
    else:  # "monotone": starts before the previous word, still in order itself
        value = draw(st.sampled_from([0, 0.0, words[i - 1]["s"] / 2]))
        assert value < words[i - 1]["s"]
    key = {"text": "w", "whitespace": "w", "surrogate": "w", "start": "s", "negative": "s",
           "monotone": "s", "end": "e", "order": "e"}[kind]
    if value == "missing":
        del entry[key]
    else:
        entry[key] = value
    return entry


@st.composite
def faulty_words(draw):
    words = draw(valid_words(min_size=1))
    kinds = ["object", "text", "whitespace", "surrogate", "start", "end", "negative", "order"]
    if any(later["s"] > 0 for later in words[:-1]):
        kinds.append("monotone")
    faults = {}
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        allowed = [i for i in range(len(words))
                   if kind != "monotone" or (i > 0 and words[i - 1]["s"] > 0)]
        faults[draw(st.sampled_from(allowed))] = kind
    # Faults sit at distinct words and each breaks only its own word (or, for
    # "monotone", its word against an unbroken predecessor), so the first
    # faulty word keeps its fault whatever the others do.
    return [_fault(draw, faults[i], words, i) if i in faults else words[i]
            for i in range(len(words))]


def _outcome(parse, segment, columns, data, min_chars):
    """What parsing and cutting ``data`` gives: the error class and message, or
    the exact reprs of the word columns and of every sentence."""
    try:
        doc = parse(data)
    except Exception as exc:  # an AssertionError is an outcome to compare too
        return type(exc), str(exc)
    return repr(columns(doc)), [repr(s) for s in segment(doc, min_chars=min_chars)]


def _both(words, min_chars):
    doc = {"video_id": "v1", "title": "t", "source_uri": "m.mp4", "language": "it",
           "words": words}
    try:
        data = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which only an escape can write
        data = json.dumps(doc).encode("utf-8")
    columnar = _outcome(parse_transcript, segment_sentences,
                        lambda doc: list(zip(doc.words, doc.starts, doc.ends)), data, min_chars)
    per_word = _outcome(oracle_parse_transcript, oracle_segment_sentences,
                        lambda doc: [(w.text, w.start_s, w.end_s) for w in doc.words],
                        data, min_chars)
    return columnar, per_word


class TestAgainstPerWordOracle:
    """The columnar parse and cut against the per-word code they replaced."""

    @given(words=valid_words(), min_chars=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_valid_transcripts_give_the_same_sentences(self, words, min_chars):
        columnar, per_word = _both(words, min_chars)
        assert columnar == per_word

    @given(words=faulty_words(), min_chars=st.integers(1, 40))
    @settings(max_examples=400, deadline=None)
    def test_faulty_transcripts_give_the_same_error(self, words, min_chars):
        columnar, per_word = _both(words, min_chars)
        assert per_word[0] in (ParseError, ValidationError), per_word
        assert columnar == per_word

    @pytest.mark.parametrize("data", [
        b'{"video_id": "\xe9"}', b'{"video_id": "x", ', b"[" * 100_000,
        b'{"words": [{"s": ' + b"9" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
        + b"}]}",
    ], ids=["not UTF-8", "cut short", "too deep", "over-long integer"])
    def test_undecodable_transcripts_give_the_same_error(self, data):
        assert (_outcome(parse_transcript, None, None, data, 1)
                == _outcome(oracle_parse_transcript, None, None, data, 1))
        assert _outcome(parse_transcript, None, None, data, 1)[0] is ParseError


def corpus_of(sentences):
    """The columns of a Corpus holding ``sentences``, as ``loaded`` shows them:
    the times as float64 arrays, and no ordinals."""
    fields = [field for field in dataclasses.fields(Sentence) if field.name != "ordinal"]
    columns = ([getattr(s, field.name) for s in sentences] for field in fields)
    return exact(np.array(values, np.float64) if field.type == "float" else values
                 for values, field in zip(columns, fields))


def loaded(path):
    """The columns of the corpus file at ``path``, compared exactly (exact)."""
    return exact(vars(load_corpus(str(path))).values())


class TestCorpusRoundTrip:
    def make_sentences(self):
        return [
            Sentence(sentence_id_for("v1", 0, "Prima frase."), "v1", 0, "Prima frase.", 0.0, 1.5),
            Sentence(sentence_id_for("v1", 1, "Seconda frase."), "v1", 1, "Seconda frase.", 2.0, 3.25),
            Sentence(sentence_id_for("v2", 0, "Un'altra ancora."), "v2", 0, "Un'altra ancora.", 0.5, 2.125),
        ]

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        sentences = self.make_sentences()
        assert export_corpus([corpus_lines(sentences)], str(path)) == 3
        assert loaded(path) == corpus_of(sentences)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        sentences = self.make_sentences()
        export_corpus([corpus_lines(sentences + [sentences[0]])], str(path))
        with pytest.raises(ValidationError, match=sentences[0].sentence_id):
            load_corpus(str(path))

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert export_corpus([], str(path)) == 0
        content = path.read_text(encoding="utf-8")
        assert content.startswith('{"format":"aiblob-corpus","version":1}')
        assert loaded(path) == corpus_of([])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"format":"something-else","version":1}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="not an aiblob-corpus file"):
            load_corpus(str(path))

    @pytest.mark.parametrize("field,value", [
        ("sentence_id", ["a"]), ("video_id", None), ("text", 5), ("ordinal", 2.7),
        ("ordinal", True), ("start_s", float("nan")), ("end_s", "1.5"), ("end_s", 10**400),
    ])
    def test_bad_record_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        export_corpus([corpus_lines(self.make_sentences())], str(path))
        header, first, *rest = path.read_text(encoding="utf-8").split("\n")
        first = json.dumps({**json.loads(first), field: value})
        path.write_text("\n".join([header, first, *rest]), encoding="utf-8")
        with pytest.raises(ParseError, match=":2: bad corpus record"):
            load_corpus(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        export_corpus([corpus_lines(self.make_sentences())], str(path))
        header, first, second, *rest = path.read_text(encoding="utf-8").split("\n")
        second = json.dumps({**json.loads(second), "speaker": "A"})
        path.write_text("\n".join([header, first, second, *rest]), encoding="utf-8")
        with pytest.raises(ParseError, match=r"corpus\.jsonl:3: .*unknown key\(s\): speaker"):
            load_corpus(str(path))

    def test_errors_name_the_line_in_the_file(self, tmp_path):
        # Two blank lines before the faulty row: it is on line 6 of the file,
        # though it is the third record.
        path = tmp_path / "corpus.jsonl"
        export_corpus([corpus_lines(self.make_sentences())], str(path))
        header, first, second, third, *rest = path.read_text(encoding="utf-8").split("\n")
        third = json.dumps({**json.loads(third), "ordinal": "2"})
        path.write_text("\n".join([header, first, "", second, "", third, *rest]),
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"corpus\.jsonl:6: bad corpus record: ordinal"):
            load_corpus(str(path))
        path.write_bytes(path.read_bytes().replace(b"Un'altra", b"Un\xffaltra"))
        with pytest.raises(ParseError, match=r"corpus\.jsonl:6: not valid UTF-8"):
            load_corpus(str(path))

    def test_duplicate_id_named_by_its_line_in_the_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        sentences = self.make_sentences()
        export_corpus([corpus_lines(sentences + [sentences[0]])], str(path))
        path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n"), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"corpus\.jsonl:9: duplicate sentence_id"):
            load_corpus(str(path))

    def test_crlf_line_ends_load_as_lf(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        sentences = self.make_sentences()
        export_corpus([corpus_lines(sentences)], str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert loaded(path) == corpus_of(sentences)
        # With a blank line after each line, and with the last line unended.
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r\n\r\n").rstrip(b"\r\n"))
        assert loaded(path) == corpus_of(sentences)

    def test_lone_cr_is_not_a_line_break(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        export_corpus([corpus_lines(self.make_sentences())], str(path))
        header, first, second, *rest = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([header, first + b"\r" + second, *rest]))
        with pytest.raises(ParseError, match=r"corpus\.jsonl:2: invalid JSON"):
            load_corpus(str(path))

    def test_export_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_corpus([corpus_lines(self.make_sentences())], str(a))
        export_corpus([corpus_lines(self.make_sentences())], str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_files_exported_together_are_the_corpus_of_all_their_sentences(self, tmp_path):
        """One export of several files' corpus_lines writes the bytes that
        write_columns writes for all their sentences, and returns their count."""
        sentences = self.make_sentences()
        together, apart = tmp_path / "together.jsonl", tmp_path / "apart.jsonl"
        write_columns(str(together), {"format": "aiblob-corpus", "version": 1}, Sentence,
                      record_columns(Sentence, sentences))
        files = [corpus_lines(sentences[:2]), corpus_lines([]), corpus_lines(sentences[2:])]
        assert export_corpus(files, str(apart)) == 3
        assert apart.read_bytes() == together.read_bytes()

    def test_an_error_from_the_files_leaves_no_corpus(self, tmp_path):
        def files():
            yield corpus_lines(self.make_sentences())
            raise ValidationError("second file")

        with pytest.raises(ValidationError, match="second file"):
            export_corpus(files(), str(tmp_path / "corpus.jsonl"))
        assert list(tmp_path.iterdir()) == []


class TestSegmentFile:
    def test_returns_the_video_id_and_corpus_lines(self, tmp_path):
        path = tmp_path / "v.json"
        data = doc_bytes([("Buonasera", 0.0, 0.5), ("a", 0.5, 0.6), ("tutti.", 0.6, 1.0),
                          ("Ciao.", 1.5, 2.0)])
        path.write_bytes(data)
        sentences = segment_sentences(parse_transcript(data), min_chars=3)
        assert segment_file(str(path), 3) == ("vid001", *corpus_lines(sentences))

    @pytest.mark.parametrize("data,kind,message", [
        (b'{"video_id": ', ParseError, "transcript: invalid JSON"),
        (doc_bytes([("a.", 2.0, 2.5), ("b.", 1.0, 1.5)]), ValidationError,
         "non-monotone word start time at index 1"),
    ])
    def test_returns_a_transcript_fault_under_its_path(self, tmp_path, data, kind, message):
        path = tmp_path / "v.json"
        path.write_bytes(data)
        fault = segment_file(str(path), 12)
        assert type(fault) is kind and str(fault).startswith(f"{path}: {message}")

    def test_returns_a_read_fault(self, tmp_path):
        fault = segment_file(str(tmp_path / "missing.json"), 12)
        assert isinstance(fault, FileNotFoundError)
        assert fault.filename == str(tmp_path / "missing.json")
