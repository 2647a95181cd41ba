"""Walk through corpus loading, tag enrichment, and code fragmentation.

Run from anywhere: paths resolve relative to this file.  The script uses
the small shipped corpus of nine lecture videos, resolves their tags
against the authority snapshot, and shows how one classification code
splits into the hierarchical fragments the similarity engine indexes.
"""

from pathlib import Path

from lodrec import (
    ZERO_PRESERVING,
    enrich,
    fragment_code,
    load_corpus,
    load_snapshot,
)

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"


def main() -> None:
    corpus = load_corpus(TOY / "corpus.jsonl")
    print(f"loaded {len(corpus)} videos from {TOY / 'corpus.jsonl'}")
    for record in corpus.records[:3]:
        tags = ", ".join(t.surface for t in record.tags)
        print(f"  {record.id} [{record.language}] {record.title!r}")
        print(f"    tags: {tags}")

    german = load_corpus(TOY / "corpus.jsonl", language_filter="de")
    print(f"\nlanguage filter 'de' keeps {len(german)} of {len(corpus)} "
          f"(dropped {german.dropped_count})")

    snapshot = load_snapshot(TOY / "authority.tsv")
    print(f"\nauthority snapshot has {len(snapshot)} entries")
    enriched = enrich(german, snapshot)
    resolved = sum(len(v.resolved) for v in enriched)
    unresolved = sum(v.unresolved_count for v in enriched)
    print(f"enrichment resolved {resolved} tags, {unresolved} had no entry")

    video = enriched[0]
    print(f"\n{video.video.id} resolves to:")
    for r in video.resolved:
        surface = video.video.tags[r.tag_index].surface
        codes = ", ".join(str(c) for c in r.ddc_codes)
        print(f"  {surface!r} -> {r.gnd_id} with codes {codes}")

    print("\nfragmenting 005.74 (leading zeros stripped by default):")
    for fragment in fragment_code("005.74"):
        print(f"  level {fragment.level}: prefix {fragment.prefix}")

    print("\nthe same code with zeros preserved:")
    for fragment in fragment_code("005.74", mode=ZERO_PRESERVING):
        print(f"  level {fragment.level}: prefix {fragment.prefix}")


if __name__ == "__main__":
    main()
