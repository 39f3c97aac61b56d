from __future__ import annotations

import pytest

from midisync.tokens import (
    INSTRUMENTS,
    MAX_SHIFT_MS,
    RESOLUTION_MS,
    SHIFT_VALUES_MS,
    VOCABULARY,
    Instrument,
    Token,
    TokenKind,
    TokenVocabulary,
    format_tokens,
    parse_tokens,
)


def test_vocabulary_size():
    # 6 markers + 125 shifts + 5 instruments * 128 pitches * 2 directions
    assert len(VOCABULARY) == 6 + 125 + 5 * 128 * 2 == 1411


def test_shift_values_cover_grid():
    assert SHIFT_VALUES_MS[0] == RESOLUTION_MS == 8
    assert SHIFT_VALUES_MS[-1] == MAX_SHIFT_MS == 1000
    assert len(SHIFT_VALUES_MS) == 125
    assert all(b - a == 8 for a, b in zip(SHIFT_VALUES_MS, SHIFT_VALUES_MS[1:]))


def test_id_layout_documented_order():
    assert VOCABULARY.token_of(0).kind is TokenKind.START
    assert VOCABULARY.token_of(1).kind is TokenKind.BAR
    assert VOCABULARY.token_of(2).kind is TokenKind.PAD
    assert VOCABULARY.token_of(3).kind is TokenKind.CHORD
    assert VOCABULARY.token_of(4).kind is TokenKind.FEWER_INSTRUMENTS
    assert VOCABULARY.token_of(5).kind is TokenKind.MORE_INSTRUMENTS
    assert VOCABULARY.token_of(6) == Token.shift(8)
    assert VOCABULARY.token_of(130) == Token.shift(1000)
    # instrument blocks are alphabetical: bass, drums, guitar, piano, strings
    assert VOCABULARY.token_of(131) == Token.on(Instrument.BASS, 0)
    assert VOCABULARY.token_of(259) == Token.off(Instrument.BASS, 0)
    assert VOCABULARY.token_of(1410) == Token.off(Instrument.STRINGS, 127)


def test_bijection_over_all_ids():
    seen = set()
    for i in range(len(VOCABULARY)):
        tok = VOCABULARY.token_of(i)
        assert VOCABULARY.id_of(tok) == i
        assert tok not in seen
        seen.add(tok)


def test_name_round_trip_over_all_tokens():
    for tok in VOCABULARY:
        assert Token.from_name(tok.name) == tok


def test_specific_names():
    assert Token.on(Instrument.PIANO, 60).name == "PIANO_ON_60"
    assert Token.off(Instrument.DRUMS, 36).name == "DRUMS_OFF_36"
    assert Token.shift(800).name == "TIMESHIFT_800"
    assert Token.from_name("GUITAR_ON_43") == Token.on(Instrument.GUITAR, 43)


@pytest.mark.parametrize("bad", ["TIMESHIFT_7", "TIMESHIFT_1008", "PIANO_ON_128",
                                 "HARP_ON_60", "PIANO_UP_60", "TIMESHIFT_-8", ""])
def test_bad_names_rejected(bad):
    with pytest.raises(ValueError):
        Token.from_name(bad)


def test_token_payload_validation():
    with pytest.raises(ValueError):
        Token.shift(7)
    with pytest.raises(ValueError):
        Token.shift(0)
    with pytest.raises(ValueError):
        Token.shift(1008)
    with pytest.raises(ValueError):
        Token.on(Instrument.PIANO, 128)
    with pytest.raises(ValueError):
        Token.on(Instrument.PIANO, -1)
    with pytest.raises(ValueError):
        Token(TokenKind.CHORD, shift_ms=8)
    with pytest.raises(ValueError):
        Token(TokenKind.ON, instrument=Instrument.PIANO)  # pitch missing


def test_instrument_order_alphabetical():
    assert [i.value for i in INSTRUMENTS] == ["bass", "drums", "guitar", "piano", "strings"]
    assert Instrument.DRUMS.is_drums
    assert not Instrument.PIANO.is_drums


def test_manifest_round_trip():
    text = VOCABULARY.manifest()
    lines = text.strip().split("\n")
    assert len(lines) == 1411
    assert lines[0] == "0\tSTART"
    assert lines[6] == "6\tTIMESHIFT_8"
    TokenVocabulary.check_manifest(text)  # no error
    with pytest.raises(ValueError):
        TokenVocabulary.check_manifest(text.replace("0\tSTART", "0\tBAR", 1))


def test_token_text_round_trip():
    toks = [
        Token(TokenKind.START),
        Token(TokenKind.FEWER_INSTRUMENTS),
        Token.on(Instrument.PIANO, 60),
        Token.shift(800),
        Token.off(Instrument.PIANO, 60),
    ]
    text = format_tokens(toks)
    assert text == "START\nFEWER_INSTRUMENTS\nPIANO_ON_60\nTIMESHIFT_800\nPIANO_OFF_60\n"
    assert parse_tokens(text) == toks


def test_parse_tokens_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_tokens("START\nNOT_A_TOKEN\n")


def test_parse_tokens_accepts_non_canonical_spellings():
    toks = parse_tokens("TIMESHIFT_0008\nPIANO_ON_060\n  CHORD  \n")
    assert toks == [Token.shift(8), Token.on(Instrument.PIANO, 60), Token(TokenKind.CHORD)]
    manifest = VOCABULARY.manifest().replace("6\tTIMESHIFT_8\n", "6\tTIMESHIFT_0008\n", 1)
    TokenVocabulary.check_manifest(manifest)  # no error
    misplaced = manifest.replace("0\tSTART\n", "0\tBAR \n", 1)
    with pytest.raises(ValueError, match=r"^manifest line 1: 'BAR ' has id 0, expected 1$"):
        TokenVocabulary.check_manifest(misplaced)


@pytest.mark.parametrize("bad", ["TIMESHIFT_7", "TIMESHIFT_1008", "PIANO_ON_128",
                                 "HARP_ON_60", "PIANO_UP_60", "TIMESHIFT_-8", "piano_on_60"])
def test_parse_errors_carry_the_name_parser_message(bad):
    with pytest.raises(ValueError) as expected:
        Token.from_name(bad)
    with pytest.raises(ValueError) as exc:
        parse_tokens(f"START\n\n{bad}\n")
    assert str(exc.value) == f"line 3: {expected.value}"
    manifest = VOCABULARY.manifest().replace("\tSTART\n", f"\t{bad}\n", 1)
    with pytest.raises(ValueError) as exc:
        TokenVocabulary.check_manifest(manifest)
    assert str(exc.value) == str(expected.value)
