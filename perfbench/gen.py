"""Seeded inputs and their reference digests for one benchmark workload.

Run as its own process before anything is measured::

    python3 perfbench/gen.py --workload medline-search --seed 3 --out DIR

It writes the workload's input file(s) and ``oracle.json`` into ``DIR``.

Why the documents are resampled from a pool: the oracle,
:class:`repro.projection.ReferenceProjector`, does not use the compiled
Figure-4 tables, but it tokenizes every character in Python (~0.55 s per MB
per query).  Projecting a 32 MB XMark file for all 18 queries would take
about five minutes for every seed.  So each document is built from a seeded
*pool* document (2-3 MB, from the repository's own generators): the
children of fixed list elements (MEDLINE citations, XMark items, people,
auctions...) are redrawn with replacement until the document reaches its
target size.  The reference projector decides every token from its
ancestor stack alone, and every redrawn element sits under the same
ancestors as in the pool, so each query's output on the large document is
exactly the concatenation of the pool pieces' outputs in document order.
The oracle therefore projects only the pool, once per query, and digests the
large output by concatenation.  A composed test document is also projected
in full, every time, to confirm that the concatenation holds.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import sys

from repro.projection.reference import ReferenceProjector
from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd
from repro.workloads.medline.generator import MedlineGenerator
from repro.workloads.xmark import XMARK_QUERIES, XMARK_QUERY_ORDER, xmark_dtd
from repro.workloads.xmark.generator import generate_xmark_document_of_size
from repro.xml.serialize import serialize_token
from repro.xml.tokenizer import XmlTokenizer
from repro.xml.tokens import TokenKind

DOCUMENT_BYTES = 32_000_000
MEDLINE_POOL_CITATIONS = 1_250          # ~3 MB
XMARK_POOL_BYTES = 2_000_000
FEED_RECORDS = 40
FEED_CITATIONS_PER_RECORD = 96          # ~230 KB per record
CHECK_BYTES = 150_000

SEARCH_QUERIES = ("M1", "M2", "M3", "M4", "M5")
FEED_QUERIES = ("M2", "M3", "M4", "M5")

_MEDLINE_LISTS = {("MedlineCitationSet",)}
_XMARK_LISTS = {
    ("site", "regions", region)
    for region in ("africa", "asia", "australia", "europe", "namerica",
                   "samerica")
} | {
    ("site", "categories"), ("site", "catgraph"), ("site", "people"),
    ("site", "open_auctions"), ("site", "closed_auctions"),
}


class Pool:
    """A pool document cut into fixed pieces and redrawable list children.

    ``spans`` holds the text range of every piece, in document order.
    ``template`` is the pool's layout: ``("piece", id)`` for text copied as
    is, ``("list", [ids])`` for the children of one list element, which a
    composition redraws.
    """

    def __init__(self, text: str, lists: set[tuple[str, ...]]) -> None:
        self.text = text
        self.tokens = list(XmlTokenizer(text).tokens())
        units: list[tuple[int, int]] = []
        stack: list[str] = []
        unit = None                      # (start offset, depth) while open
        for token in self.tokens:
            if unit is None and tuple(stack) in lists and token.kind in (
                    TokenKind.START_TAG, TokenKind.EMPTY_TAG):
                unit = (token.start, len(stack))
            if token.kind is TokenKind.START_TAG:
                stack.append(token.name)
            elif token.kind is TokenKind.END_TAG:
                stack.pop()
            if unit is not None and len(stack) == unit[1]:
                units.append((unit[0], token.end))
                unit = None
        self.spans: list[tuple[int, int]] = []
        self.template: list[tuple[str, object]] = []
        position = 0
        for start, end in units:
            if start > position:
                self._add_piece(position, start)
            if not self.template or self.template[-1][0] != "list":
                self.template.append(("list", []))
            self.template[-1][1].append(len(self.spans))
            self.spans.append((start, end))
            position = end
        self._add_piece(position, len(text))
        self._starts = [start for start, _ in self.spans]

    def _add_piece(self, start: int, end: int) -> None:
        if end > start:
            self.template.append(("piece", len(self.spans)))
            self.spans.append((start, end))

    def piece_text(self, piece: int) -> str:
        start, end = self.spans[piece]
        return self.text[start:end]

    def compose(self, rng: random.Random, *, scale: float = 1.0,
                per_list: int | None = None) -> list[int]:
        """Piece ids of a new document: every list redrawn with replacement,
        to ``per_list`` children or ``scale`` times its pool length."""
        pieces = []
        for kind, value in self.template:
            if kind == "piece":
                pieces.append(value)
            else:
                count = per_list if per_list is not None else max(
                    1, round(len(value) * scale))
                pieces.extend(rng.choice(value) for _ in range(count))
        return pieces

    def outputs(self, paths, dtd) -> list[bytes]:
        """Reference projection of every piece (index = piece id)."""
        projector = ReferenceProjector(paths, add_default_paths=False,
                                       alphabet=dtd.tag_names())
        parts: list[list[str]] = [[] for _ in self.spans]
        for token in projector.project_tokens(self.tokens):
            piece = bisect.bisect_right(self._starts, token.start) - 1
            parts[piece].append(serialize_token(token))
        return ["".join(part).encode("utf-8") for part in parts]


def _digest(outputs: list[bytes], pieces: list[int]) -> dict:
    digest = hashlib.sha256()
    size = 0
    for piece in pieces:
        digest.update(outputs[piece])
        size += len(outputs[piece])
    return {"sha256": digest.hexdigest(), "bytes": size}


def _write(pool: Pool, pieces: list[int], path: str) -> int:
    written = 0
    with open(path, "wb") as handle:
        for piece in pieces:
            data = pool.piece_text(piece).encode("utf-8")
            handle.write(data)
            written += len(data)
        handle.flush()
        os.fsync(handle.fileno())
    return written


def _check_composition(pool: Pool, rng: random.Random, specs, dtd,
                       outputs: dict[str, list[bytes]]) -> None:
    """Project a small composed document in full and compare it with the
    concatenated piece outputs, for every query."""
    pieces = pool.compose(rng, scale=CHECK_BYTES / len(pool.text))
    text = "".join(pool.piece_text(piece) for piece in pieces)
    for spec in specs:
        whole = ReferenceProjector(
            spec.parsed_paths(), add_default_paths=False,
            alphabet=dtd.tag_names(),
        ).project_text(text).output.encode("utf-8")
        if whole != b"".join(outputs[spec.name][p] for p in pieces):
            raise SystemExit(
                f"oracle composition does not hold for {spec.name}: the "
                "reference projector's output is not piecewise"
            )


def generate(workload: str, seed: int, out: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "xmark-shared":
        dtd = xmark_dtd()
        specs = [XMARK_QUERIES[name] for name in XMARK_QUERY_ORDER]
        pool = Pool(generate_xmark_document_of_size(XMARK_POOL_BYTES,
                                                    seed=seed), _XMARK_LISTS)
    else:
        dtd = medline_dtd()
        names = SEARCH_QUERIES if workload == "medline-search" else FEED_QUERIES
        specs = [MEDLINE_QUERIES[name] for name in names]
        pool = Pool(MedlineGenerator(citations=MEDLINE_POOL_CITATIONS,
                                     seed=seed).generate(), _MEDLINE_LISTS)
    outputs = {spec.name: pool.outputs(spec.parsed_paths(), dtd)
               for spec in specs}
    _check_composition(pool, rng, specs, dtd, outputs)
    labels = [spec.name for spec in specs]   # the engine's query labels
    oracle: dict = {"workload": workload, "seed": seed}
    if workload == "medline-feed":
        records = []
        lengths = []
        with open(os.path.join(out, "feed.bin"), "wb") as handle:
            for _ in range(FEED_RECORDS):
                pieces = pool.compose(rng, per_list=FEED_CITATIONS_PER_RECORD)
                data = "".join(pool.piece_text(p) for p in pieces).encode()
                handle.write(data)
                lengths.append(len(data))
                records.append({label: _digest(outputs[label], pieces)
                                for label in labels})
            handle.flush()
            os.fsync(handle.fileno())
        oracle.update(input="feed.bin", record_bytes=lengths, records=records)
    else:
        pieces = pool.compose(rng, scale=DOCUMENT_BYTES / len(pool.text))
        name = "xmark.xml" if workload == "xmark-shared" else "medline.xml"
        size = _write(pool, pieces, os.path.join(out, name))
        oracle.update(input=name, input_bytes=size,
                      queries={label: _digest(outputs[label], pieces)
                               for label in labels})
    return oracle


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("medline-search", "xmark-shared",
                                 "medline-feed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    oracle = generate(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "oracle.json"), "w") as handle:
        json.dump(oracle, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
