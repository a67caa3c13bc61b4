"""Build the benchmark's model store and contract pool.

Run as ``python -m perfbench.prepare WORKDIR`` in a child process, so
corpus generation and training never touch the measuring process's
peak resident set. Everything here uses fixed seeds: the model and the
pool are part of the system under test, identical in every run; the
workload seed only chooses inputs from the pool.

Outputs in ``WORKDIR``:

* ``store/`` — a :class:`repro.artifacts.ModelStore` whose ``production``
  tag holds the default 120-tree Random Forest opcode-histogram
  classifier (HSC), trained on its own corpus;
* ``pool.npz`` — every deployed record of a second corpus, minimal-proxy
  clones included: concatenated bytecodes with offsets, addresses and
  record kinds.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

#: Unique bytecodes per class in each corpus.
CORPUS_PER_CLASS = 120
TRAIN_CORPUS_SEED = 7
POOL_CORPUS_SEED = 11
MODEL = "Random Forest"
TAG = "production"


def prepare(workdir: pathlib.Path) -> None:
    from repro.artifacts import ModelStore
    from repro.datagen.corpus import CorpusConfig, build_corpus
    from repro.models.hsc import HSCDetector

    def corpus(seed):
        return build_corpus(CorpusConfig(
            n_phishing=CORPUS_PER_CLASS, n_benign=CORPUS_PER_CLASS, seed=seed,
        ))

    train = corpus(TRAIN_CORPUS_SEED).unique_records()
    model = HSCDetector(MODEL, seed=0).fit(
        [r.bytecode for r in train], [r.label for r in train]
    )
    ModelStore(workdir / "store").put(model, model_name=MODEL, tags=(TAG,))

    records = [r for r in corpus(POOL_CORPUS_SEED).records if r.bytecode]
    lengths = np.array([len(r.bytecode) for r in records], dtype=np.int64)
    np.savez(
        workdir / "pool.npz",
        codes=np.frombuffer(b"".join(r.bytecode for r in records), np.uint8),
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
        addresses=np.array([r.address for r in records]),
        kinds=np.array([r.kind for r in records]),
    )


if __name__ == "__main__":
    prepare(pathlib.Path(sys.argv[1]))
