"""Debug dumps of the cut topology (SVG picture or CSV table)."""

from __future__ import annotations

from .errors import ConfigError
from .geometry import ILL_CUT, UNCUT, WELL_CUT, CutMesh

_FILL = {
    (UNCUT, 1): "#dce9f5",
    (UNCUT, 2): "#ffffff",
    (WELL_CUT, 0): "#fff2c4",
    (ILL_CUT, 1): "#9fd89f",
    (ILL_CUT, 2): "#9fb8e8",
}


def dump_cuts_svg(cm: CutMesh, path: str) -> None:
    size = 800  # picture width and height in pixels

    def pt(x, y):
        return f"{x * size:.2f},{(1.0 - y) * size:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for cid, key in enumerate(zip(cm.cells.kind.tolist(), cm.cells.side.tolist())):
        x0, y0, x1, y1 = cm.mesh.cell_box(cid)
        fill = _FILL.get(key, "#ffffff")
        lines.append(
            f'<rect x="{x0 * size:.2f}" y="{(1 - y1) * size:.2f}" '
            f'width="{(x1 - x0) * size:.2f}" height="{(y1 - y0) * size:.2f}" '
            f'fill="{fill}" stroke="#888888" stroke-width="0.5"/>'
        )
    for line in cm.cells.polyline.values():
        pts = " ".join(pt(x, y) for x, y in line)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="#cc2222" '
            'stroke-width="1.5"/>'
        )
    for s, t in sorted(cm.pairing.partner.items()):
        a = cm.mesh.cell_center(s)
        b = cm.mesh.cell_center(t)
        lines.append(
            f'<line x1="{a[0] * size:.2f}" y1="{(1 - a[1]) * size:.2f}" '
            f'x2="{b[0] * size:.2f}" y2="{(1 - b[1]) * size:.2f}" '
            'stroke="#222222" stroke-width="1.2" marker-end="url(#arr)"/>'
        )
    lines.insert(1, (
        '<defs><marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#222222"/></marker></defs>'
    ))
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def dump_cuts_csv(cm: CutMesh, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("cell,kind,side,partner,polyline\n")
        for cid, (kind, side) in enumerate(zip(cm.cells.kind.tolist(), cm.cells.side.tolist())):
            partner = cm.pairing.partner.get(cid, "")
            poly = ";".join(f"{x:.16g}:{y:.16g}" for x, y in cm.cells.polyline.get(cid, ()))
            fh.write(f"{cid},{kind},{side or ''},{partner},{poly}\n")


def check_dump_path(path: str) -> None:
    """Raise a ConfigError unless ``path`` ends in .svg or .csv, the two
    formats of ``dump_cuts``; it needs no geometry, so a caller can check
    a path before building any."""
    if not path.endswith((".svg", ".csv")):
        raise ConfigError(f"a cut dump path must end in .svg or .csv, got {path!r}")


def dump_cuts(cm: CutMesh, path: str) -> None:
    """Write the cut topology as a CSV table to a .csv path, as an SVG
    picture to a .svg path; any other path raises a ConfigError and
    writes nothing."""
    check_dump_path(path)
    if path.endswith(".csv"):
        dump_cuts_csv(cm, path)
    else:
        dump_cuts_svg(cm, path)
