"""Build a scoring index and compare the two similarity routes.

The pipeline writes its artifacts into a temporary directory, so this
script leaves the repository untouched.  It then scores a pair of
related database videos both ways, shows the fallback for a video
without resolvable codes, and prints top-3 recommendations with and
without the classification-code evidence.
"""

import io
import tempfile
from pathlib import Path

from lodrec import (
    WITH_LOD,
    WITHOUT_LOD,
    combined_similarity,
    load_config,
    load_index,
    override_config,
    recommend,
    run_index,
    run_ingest,
    write_matrix_tsv,
)

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"


def describe(index, i: str, j: str) -> None:
    s = combined_similarity(index, i, j)
    def fmt(x):
        return "undefined" if x is None else f"{x:.4f}"
    note = " (fallback)" if s.fallback_applied else ""
    print(f"  {i} vs {j}: text {fmt(s.s_text)}, codes {fmt(s.s_ddc)}, "
          f"combined {fmt(s.s_lod)}{note}")


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        config = override_config(load_config(TOY / "config.txt"),
                                 index_dir=Path(workdir))
        ingest = run_ingest(config)
        print(f"ingest kept {ingest['retained']} of {ingest['read']} videos")
        summary = run_index(config)
        print(f"index built: {summary['vocabulary_size']} fragments, "
              f"embedding dim {summary['embedding_dim']}, "
              f"fingerprint {summary['fingerprint']}")

        index = load_index(config)
        print("\npairwise scores:")
        describe(index, "v001", "v002")  # SPARQL vs SQL: share codes
        describe(index, "v001", "v005")  # SPARQL vs quantum mechanics

        print("\ntop 3 for v001 with code evidence:")
        for vid, score in recommend("v001", index, k=3,
                                    method=WITH_LOD).ranked:
            print(f"  {vid}  {score:.4f}")

        print("top 3 for v001 from text alone:")
        for vid, score in recommend("v001", index, k=3,
                                    method=WITHOUT_LOD).ranked:
            print(f"  {vid}  {score:.4f}")

        tsv = io.StringIO()
        write_matrix_tsv(index, tsv, WITH_LOD)
        print(f"\nfull matrix is {len(index)}x{len(index)}; first TSV line:")
        print(" ", tsv.getvalue().splitlines()[0].replace("\t", "  "))


if __name__ == "__main__":
    main()
