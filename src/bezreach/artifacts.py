"""Deterministic artifact emission: CSV, JSON, SVG, and content hashes.

All numeric output uses 17 significant digits so re-running a command
with the same config and seed reproduces files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(value: float) -> str:
    return f"{float(value):.17g}"


def write_csv(path, header: list[str], rows) -> None:
    """RFC-4180 CSV with '.' decimals and 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\r\n".join(lines) + "\r\n")


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = [f"c{j}" for j in range(matrix.shape[1])]
    write_csv(path, header, matrix)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# SVG canvas size and plot margin, in pixels.
_WIDTH, _HEIGHT, _PAD = 480, 360, 20


def _svg_frame(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    border = (
        f'<rect x="0.5" y="0.5" width="{_WIDTH - 1}" height="{_HEIGHT - 1}" '
        'fill="white" stroke="black"/>'
    )
    return "\n".join([head, border] + body + ["</svg>"]) + "\n"


def _scale(points: np.ndarray):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)

    def to_px(p):
        sx = _PAD + (p[0] - lo[0]) / span[0] * (_WIDTH - 2 * _PAD)
        sy = _HEIGHT - _PAD - (p[1] - lo[1]) / span[1] * (_HEIGHT - 2 * _PAD)
        return sx, sy

    return to_px


def write_scatter_svg(path, points: np.ndarray) -> None:
    """Scatter plot of 2-D points without any plotting dependency."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        Path(path).write_text(_svg_frame([]))
        return
    to_px = _scale(points)
    body = []
    for p in points:
        x, y = to_px(p)
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="steelblue"/>')
    Path(path).write_text(_svg_frame(body))


def write_polyline_svg(path, points: np.ndarray) -> None:
    """Polyline through 2-D points (trajectory phase plot)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        write_scatter_svg(path, points)
        return
    to_px = _scale(points)
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in points))
    body = [f'<polyline points="{coords}" fill="none" stroke="firebrick"/>']
    Path(path).write_text(_svg_frame(body))
