"""The token reader, the decoder and the SMF writer as they stood before
they moved to id arrays and note columns, kept as oracles.

``oracle_parse_tokens``, ``oracle_decode_events`` and ``oracle_write_midi``
are the Token-list bodies of ``tokens.parse_tokens``,
``midi_codec.decode_events`` and ``midi_codec.write_midi`` copied word for
word (only the function names differ), so the tests can require the
package's id and column paths to give the same tokens, decode results and
SMF bytes.  The decoder is the :class:`DecodeState` fold that generation
runs.  ``write_midi`` writes format 1 only; the oracle's format 0 files
are the tests' single-track inputs (:func:`smf_bytes`).

``gap_to_shifts`` is the Token-list rule that ``midi_codec.encode_ids``
splits a gap by, in array form: the tests require the two to agree.
"""

from __future__ import annotations

from midisync.midi_codec import (
    _CHANNELS,
    _PROGRAMS,
    _WRITE_DIVISION,
    DEFAULT_VELOCITY,
    DecodeResult,
    NoteEvent,
    ScoreTimeline,
    _unchecked_note,
    write_midi,
)
from midisync.tokens import (
    INSTRUMENTS,
    MAX_SHIFT_MS,
    RESOLUTION_MS,
    VOCABULARY,
    DecodeState,
    Instrument,
    Token,
    TokenKind,
)


def oracle_parse_tokens(text: str) -> list[Token]:
    """Inverse of :func:`format_tokens`; blank lines are ignored."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        try:
            out.append(Token.from_name(name))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


def gap_to_shifts(gap_ms: int) -> list[Token]:
    """Split a grid-aligned gap into TIMESHIFT tokens (1000 ms chunks first)."""
    if gap_ms % RESOLUTION_MS:
        raise ValueError(f"gap {gap_ms} not aligned to {RESOLUTION_MS} ms grid")
    out = []
    while gap_ms > MAX_SHIFT_MS:
        out.append(Token.shift(MAX_SHIFT_MS))
        gap_ms -= MAX_SHIFT_MS
    if gap_ms:
        out.append(Token.shift(gap_ms))
    return out


def _varlen(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta time")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track_chunk(body: bytes) -> bytes:
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def oracle_write_midi(score: ScoreTimeline, smf_type: int = 1) -> bytes:
    """Render a :class:`ScoreTimeline` as SMF bytes (format 0 or 1).

    Each instrument category is written to its own fixed channel (drums
    on channel 10) with a representative General MIDI program, at 480
    ticks per quarter, so that re-parsing buckets every note back into
    its original category.
    """
    if smf_type not in (0, 1):
        raise ValueError(f"smf_type must be 0 or 1, got {smf_type}")
    tempo_us = round(60_000_000 / score.tempo_bpm)
    ms_to_tick = lambda ms: round(ms * _WRITE_DIVISION * 1000 / tempo_us)  # noqa: E731
    # one pass over the notes: each instrument's (score index, note) pairs
    by_instrument: dict[Instrument, list[tuple[int, NoteEvent]]] = {i: [] for i in INSTRUMENTS}
    for i, n in enumerate(score.notes):
        by_instrument[n.instrument].append((i, n))

    def meta_body() -> list[tuple[int, int, int, bytes]]:
        return [
            (0, 0, -1, b"\xff\x51\x03" + tempo_us.to_bytes(3, "big")),
            (0, 1, -1, b"\xff\x58\x04\x04\x02\x18\x08"),
        ]

    def note_messages(k: int, inst: Instrument) -> list[tuple[int, int, int, bytes]]:
        """Program change and note on/off messages of the ``k``-th instrument.

        Keys are (tick, priority, order): the program precedes any note at
        tick 0, and messages that tie on both keep the score's order.
        """
        ch = _CHANNELS[inst]
        msgs = [(0, -1, k, bytes((0xC0 | ch, _PROGRAMS[inst])))] if inst in _PROGRAMS else []
        on, off = 0x90 | ch, 0x80 | ch
        for i, (_, pitch, onset, offset, velocity) in by_instrument[inst]:
            on_tick = ms_to_tick(onset)
            off_tick = max(ms_to_tick(offset), on_tick + 1)
            msgs.append((on_tick, 1, i, bytes((on, pitch, velocity))))
            msgs.append((off_tick, 0, i, bytes((off, pitch, 0))))
        return msgs

    def render(msgs: list[tuple[int, int, int, bytes]]) -> bytes:
        # (tick, priority, order) is unique per message: payloads are never compared
        msgs.sort()
        out = bytearray()
        tick = 0
        for t, _, _, payload in msgs:
            delta = t - tick
            if delta < 0x80:
                out.append(delta)
            else:
                out += _varlen(delta)
            out += payload
            tick = t
        out += b"\x00\xff\x2f\x00"
        return bytes(out)

    used = [(k, inst) for k, inst in enumerate(INSTRUMENTS) if by_instrument[inst]]
    if smf_type == 0:
        tracks = [render(meta_body() + [m for k, inst in used for m in note_messages(k, inst)])]
    else:
        tracks = [render(meta_body())] + [render(note_messages(k, inst)) for k, inst in used]

    header = b"MThd" + (6).to_bytes(4, "big")
    header += smf_type.to_bytes(2, "big")
    header += len(tracks).to_bytes(2, "big")
    header += _WRITE_DIVISION.to_bytes(2, "big")
    return header + b"".join(_track_chunk(t) for t in tracks)


def smf_bytes(score: ScoreTimeline, smf_type: int) -> bytes:
    """``score`` as SMF bytes of format ``smf_type``: ``write_midi``'s for 1, the oracle's for 0."""
    return write_midi(score) if smf_type else oracle_write_midi(score, 0)


def oracle_decode_events(tokens: list[Token]) -> DecodeResult:
    """Rebuild a timeline from a token sequence by folding a :class:`DecodeState`.

    ONs pair with OFFs by the state's rule, as in generation.  Tolerant
    by construction: orphan OFFs are counted and skipped, zero-length
    notes are counted and dropped, and notes still open at the end of
    the stream are closed there.  CHORD markers do not affect the
    timeline but their cursor positions are reported.
    """
    state = DecodeState()
    push = state.push
    notes: list[NoteEvent] = []
    chord_onsets: list[int] = []
    bar_marks: list[int] = []
    ignored_offs = 0
    dropped = 0

    # kinds bound to locals: a member lookup on the enum class is slow
    off_kind, chord_kind, bar_kind = TokenKind.OFF, TokenKind.CHORD, TokenKind.BAR
    for tok in tokens:
        kind = tok.kind
        # An OFF closes the oldest open onset of its note, if there is one.
        fifo = state.open_notes.get(tok.id) if kind is off_kind else None
        onset = fifo[0] if fifo else None
        push(tok)
        if onset is not None:
            if state.cursor_ms > onset:
                fields = (tok.instrument, tok.pitch, onset, state.cursor_ms, DEFAULT_VELOCITY)
                notes.append(_unchecked_note(fields))
            else:
                dropped += 1
        elif kind is off_kind:
            ignored_offs += 1
        elif kind is chord_kind:
            chord_onsets.append(state.cursor_ms)
        elif kind is bar_kind:
            if not bar_marks or state.cursor_ms > bar_marks[-1]:
                bar_marks.append(state.cursor_ms)

    cursor = state.cursor_ms
    for off_id, onsets in state.open_notes.items():
        off = VOCABULARY[off_id]
        for onset in onsets:
            if cursor > onset:
                fields = (off.instrument, off.pitch, onset, cursor, DEFAULT_VELOCITY)
                notes.append(_unchecked_note(fields))
            else:
                dropped += 1

    return DecodeResult(
        score=ScoreTimeline(notes=notes, bar_marks_ms=tuple(bar_marks)),
        chord_onsets_ms=chord_onsets,
        ignored_offs=ignored_offs,
        unclosed_notes=state.open_count,
        dropped_zero_length=dropped,
    )
