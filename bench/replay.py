"""One round of a workload in a fresh process, for the `reproducible` check.

    python3 bench/replay.py <workload> <seed> <corpus dir> <report dir> [--smoke]

run.py starts this after its own rounds, on the corpus it wrote and with
another PYTHONHASHSEED than its own.  The report.json written here must
be byte-identical to the ones run.py wrote.  The last stdout line is
`hash()` of a fixed string, from which run.py confirms that the two
processes' hash seeds differ.
"""

import sys

import run  # pins thread pools and puts the checkout's src/ on sys.path

from faultlab import corpus, pipeline


def main(argv) -> int:
    name, seed, corpus_dir, report_dir = argv[:4]
    cfg = run.WORKLOADS[name].config(corpus_dir, int(seed), "--smoke" in argv[4:])
    report = pipeline.run_pipeline(cfg, corpus.load_corpus(corpus_dir))
    pipeline.emit_report(report, report_dir)
    print(hash(run.HASH_PROBE))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
