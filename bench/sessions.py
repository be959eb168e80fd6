"""Victim sessions: held-out frames of a victim who switches applications.

A session visits `apps_per_session` distinct applications and dwells on each
for a seeded number of consecutive held-out frames, never fewer than
`min_dwell`.  The sessions walk one seeded permutation of all labels in turn,
so together they visit every application once before any repeats.  A
session's frames share one sequence id and carry `t` in playback order, so
`facelight.dataset.ordered` (which sorts by sequence id, then t) and the
CLI's manifest round trip keep the playback order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from facelight.dataset import FrameRecord, ordered


def max_dwell(session_frames: int, apps_per_session: int, min_dwell: int) -> int:
    """Longest dwell a session can draw: the held-out frames needed per app."""
    return session_frames - (apps_per_session - 1) * min_dwell


def build_sessions(
    records: Sequence[FrameRecord],
    num_labels: int,
    sessions: int,
    session_frames: int,
    apps_per_session: int,
    min_dwell: int,
    rng: np.random.Generator,
) -> List[List[FrameRecord]]:
    """Cut held-out frames into `sessions` sessions of `session_frames` frames."""
    if not 1 <= apps_per_session <= num_labels:
        raise ValueError(f"apps_per_session must lie in [1, {num_labels}]")
    if session_frames < apps_per_session * min_dwell:
        raise ValueError("session too short for its apps at the minimum dwell")
    by_label: Dict[int, List[FrameRecord]] = {}
    for rec in ordered(records):
        by_label.setdefault(rec.label, []).append(rec)

    order = rng.permutation(num_labels).tolist()
    out = []
    for i in range(sessions):
        apps = [order[(i * apps_per_session + j) % num_labels] for j in range(apps_per_session)]
        spare = session_frames - apps_per_session * min_dwell
        dwells = min_dwell + rng.multinomial(spare, [1.0 / apps_per_session] * apps_per_session)
        session: List[FrameRecord] = []
        for app, dwell in zip(apps, dwells.tolist()):
            held_out = by_label.get(app, [])
            if len(held_out) < dwell:
                raise ValueError(f"label {app} has {len(held_out)} held-out frames, need {dwell}")
            first = int(rng.integers(0, len(held_out) - dwell + 1))
            for rec in held_out[first : first + dwell]:
                session.append(FrameRecord(rec.image, app, f"session-{i:02d}", len(session) + 1))
        out.append(session)
    return out


def session_arrays(session: Sequence[FrameRecord]):
    """(images, truth labels) in playback order."""
    return np.stack([r.image for r in session]), [r.label for r in session]
