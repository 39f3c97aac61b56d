from __future__ import annotations

import random

import numpy as np
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
    check_manifest,
    format_ids,
    format_manifest,
    format_tokens,
    ids_of,
    parse_ids,
    parse_tokens,
    tokens_of,
)

from codec_oracle import oracle_parse_tokens


def test_vocabulary_size():
    # 6 markers + 125 shifts + 5 instruments * 128 pitches * 2 directions
    assert len(VOCABULARY) == 6 + 125 + 5 * 128 * 2 == 1411


def test_shift_values_cover_grid():
    assert SHIFT_VALUES_MS[0] == RESOLUTION_MS == 8
    assert SHIFT_VALUES_MS[-1] == MAX_SHIFT_MS == 1000
    assert len(SHIFT_VALUES_MS) == 125
    assert all(b - a == 8 for a, b in zip(SHIFT_VALUES_MS, SHIFT_VALUES_MS[1:]))


def test_id_layout_documented_order():
    assert VOCABULARY[0].kind is TokenKind.START
    assert VOCABULARY[1].kind is TokenKind.BAR
    assert VOCABULARY[2].kind is TokenKind.PAD
    assert VOCABULARY[3].kind is TokenKind.CHORD
    assert VOCABULARY[4].kind is TokenKind.FEWER_INSTRUMENTS
    assert VOCABULARY[5].kind is TokenKind.MORE_INSTRUMENTS
    assert VOCABULARY[6] == Token.shift(8)
    assert VOCABULARY[130] == Token.shift(1000)
    # instrument blocks are alphabetical: bass, drums, guitar, piano, strings
    assert VOCABULARY[131] == Token.on(Instrument.BASS, 0)
    assert VOCABULARY[259] == Token.off(Instrument.BASS, 0)
    assert VOCABULARY[1410] == Token.off(Instrument.STRINGS, 127)


def test_bijection_over_all_ids():
    seen = set()
    for i in range(len(VOCABULARY)):
        tok = VOCABULARY[i]
        assert tok.id == i
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


def test_manifest_round_trip():
    text = format_manifest()
    lines = text.strip().split("\n")
    assert len(lines) == 1411
    assert lines[0] == "0\tSTART"
    assert lines[6] == "6\tTIMESHIFT_8"
    check_manifest(text)  # no error
    with pytest.raises(ValueError):
        check_manifest(text.replace("0\tSTART", "0\tBAR", 1))


def test_manifest_must_list_ids_in_order():
    lines = format_manifest().splitlines(keepends=True)
    with pytest.raises(ValueError, match=r"^manifest line 2: id 0, expected 1$"):
        check_manifest("0\tSTART\n" * len(VOCABULARY))
    swapped = lines[1] + lines[0] + "".join(lines[2:])
    with pytest.raises(ValueError, match=r"^manifest line 1: id 1, expected 0$"):
        check_manifest(swapped)
    check_manifest("\n".join(lines))  # blank lines are not counted


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


def test_id_arrays_give_the_token_list_text_and_entries():
    rng = random.Random(5)
    for length in [0, 1, 2, 50, 3000]:
        ids = np.array([rng.randrange(len(VOCABULARY)) for _ in range(length)], dtype=np.int64)
        toks = [VOCABULARY[i] for i in ids.tolist()]
        got = tokens_of(ids)
        assert type(got) is list and len(got) == length
        assert all(a is b for a, b in zip(got, toks))  # the shared entries
        assert format_ids(ids) == format_tokens(toks)
        assert parse_tokens(format_ids(ids)) == toks
        back = ids_of(toks)
        assert back.dtype == np.int64 and back.tolist() == ids.tolist()
    assert format_ids(np.zeros(0, dtype=np.int64)) == ""


def oracle_ids(text: str) -> np.ndarray:
    return ids_of(oracle_parse_tokens(text))


def test_parse_ids_matches_the_line_loop_on_canonical_text():
    rng = random.Random(11)
    for length in [0, 1, 2, 50, 3000]:
        ids = np.array([rng.randrange(len(VOCABULARY)) for _ in range(length)], dtype=np.int64)
        text = format_ids(ids)
        for variant in (text, text.rstrip("\n")):  # with and without the last newline
            got = parse_ids(variant)
            assert got.dtype == np.int64 and got.tolist() == ids.tolist()
            assert got.tolist() == oracle_ids(variant).tolist()
    assert parse_ids("").dtype == np.int64 and parse_ids("").shape == (0,)


@pytest.mark.parametrize(
    "text",
    [
        "START\n\nPIANO_ON_60\n\n\nTIMESHIFT_8\n",  # blank lines
        "START\r\nPIANO_ON_60\r\nTIMESHIFT_8\r\n",  # CRLF
        "  START\nPIANO_ON_60  \n\tTIMESHIFT_8\t\n",  # padded
        "TIMESHIFT_0008\nPIANO_ON_060\nBASS_OFF_007\n",  # other spellings
        "\n\n",
        "START\n   \n",
    ],
)
def test_parse_ids_reads_what_the_line_loop_reads(text):
    assert parse_ids(text).tolist() == oracle_ids(text).tolist()
    assert parse_tokens(text) == oracle_parse_tokens(text)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["NOT_A_TOKEN", "TIMESHIFT_7", "PIANO_ON_128", "piano_on_60"])
def test_parse_ids_raises_the_line_loop_error(where, bad):
    lines = ["START", "", "PIANO_ON_60", "TIMESHIFT_0008", "PIANO_OFF_60"]
    lines.insert({"first": 0, "middle": 3, "last": len(lines)}[where], bad)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError) as expected:
        oracle_parse_tokens(text)
    with pytest.raises(ValueError) as got:
        parse_ids(text)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"line {lines.index(bad) + 1}: ")


def test_parse_tokens_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_tokens("START\nNOT_A_TOKEN\n")


def test_parse_tokens_accepts_non_canonical_spellings():
    toks = parse_tokens("TIMESHIFT_0008\nPIANO_ON_060\n  CHORD  \n")
    assert toks == [Token.shift(8), Token.on(Instrument.PIANO, 60), Token(TokenKind.CHORD)]
    manifest = format_manifest().replace("6\tTIMESHIFT_8\n", "6\tTIMESHIFT_0008\n", 1)
    check_manifest(manifest)  # no error
    misplaced = manifest.replace("0\tSTART\n", "0\tBAR \n", 1)
    with pytest.raises(ValueError, match=r"^manifest line 1: 'BAR ' has id 0, expected 1$"):
        check_manifest(misplaced)


@pytest.mark.parametrize("bad", ["TIMESHIFT_7", "TIMESHIFT_1008", "PIANO_ON_128",
                                 "HARP_ON_60", "PIANO_UP_60", "TIMESHIFT_-8", "piano_on_60"])
def test_parse_errors_carry_the_name_parser_message(bad):
    with pytest.raises(ValueError) as expected:
        Token.from_name(bad)
    with pytest.raises(ValueError) as exc:
        parse_tokens(f"START\n\n{bad}\n")
    assert str(exc.value) == f"line 3: {expected.value}"
    manifest = format_manifest().replace("\tSTART\n", f"\t{bad}\n", 1)
    with pytest.raises(ValueError) as exc:
        check_manifest(manifest)
    assert str(exc.value) == str(expected.value)


def test_every_entry_carries_its_id_and_constructors_return_it():
    for i in range(len(VOCABULARY)):
        tok = VOCABULARY[i]
        assert tok.id == i
        if tok.kind is TokenKind.ON:
            assert Token.on(tok.instrument, tok.pitch) is tok
        elif tok.kind is TokenKind.OFF:
            assert Token.off(tok.instrument, tok.pitch) is tok
        elif tok.kind is TokenKind.TIMESHIFT:
            assert Token.shift(tok.shift_ms) is tok
        assert Token.from_name(tok.name) is tok


def test_direct_construction_equals_the_entry():
    direct = Token(TokenKind.ON, instrument=Instrument.PIANO, pitch=60)
    entry = Token.on(Instrument.PIANO, 60)
    assert direct == entry and hash(direct) == hash(entry)
    assert (direct.id, direct.name) == (entry.id, entry.name) == (959, "PIANO_ON_60")
    assert repr(direct) == (
        "Token(kind=<TokenKind.ON: 'ON'>, instrument=<Instrument.PIANO: 'piano'>, "
        "pitch=60, shift_ms=None)"
    )
    assert direct.id == 959


def test_non_canonical_spellings_parse_to_the_shared_entries():
    shift, on, chord = parse_tokens("TIMESHIFT_0008\nPIANO_ON_060\n  CHORD  \n")
    assert shift is Token.shift(8)
    assert on is Token.on(Instrument.PIANO, 60)
    assert chord is VOCABULARY[3]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Token.shift(7), "shift_ms must be a multiple of 8 in [8, 1000], got 7"),
        (lambda: Token.shift(1008), "shift_ms must be a multiple of 8 in [8, 1000], got 1008"),
        (lambda: Token.shift(None), "TIMESHIFT token requires shift_ms only"),
        (lambda: Token.on(Instrument.PIANO, 128), "pitch 128 outside 0..127"),
        (lambda: Token.off(Instrument.DRUMS, -1), "pitch -1 outside 0..127"),
        (lambda: Token.on(Instrument.PIANO, None), "ON token requires instrument and pitch only"),
        (lambda: Token.off(None, 60), "OFF token requires instrument and pitch only"),
        (lambda: Token(TokenKind.CHORD, shift_ms=8), "CHORD token carries no payload"),
    ],
)
def test_out_of_vocabulary_payloads_keep_their_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("pitch", [60.5, "60"])
def test_non_integer_pitch_is_outside_the_vocabulary(pitch):
    with pytest.raises(ValueError, match="outside 0..127"):
        Token.on(Instrument.PIANO, pitch)


# Payloads equal to a grid value but not of type int: a float or a bool.
@pytest.mark.parametrize(
    "make",
    [
        lambda: Token(TokenKind.ON, instrument=Instrument.PIANO, pitch=True),
        lambda: Token(TokenKind.OFF, instrument=Instrument.BASS, pitch=60.0),
        lambda: Token.on(Instrument.PIANO, False),
        lambda: Token.off(Instrument.DRUMS, 36.0),
    ],
    ids=["direct-on-bool", "direct-off-float", "on-bool", "off-float"],
)
def test_non_int_pitch_is_rejected(make):
    with pytest.raises(ValueError, match=r"^pitch .* outside 0\.\.127$"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Token(TokenKind.TIMESHIFT, shift_ms=16.0),
        lambda: Token.shift(16.0),
        lambda: Token.shift(True),
    ],
    ids=["direct-float", "shift-float", "shift-bool"],
)
def test_non_int_shift_is_rejected(make):
    with pytest.raises(ValueError, match="^shift_ms must be a multiple of 8 in"):
        make()
