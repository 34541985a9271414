import json

import numpy as np
import pytest
from hypothesis import strategies as st

from cag.config import RunConfig
from cag.model import Model, ModelParams, build_vocab, encode_instance
from cag.synthdial import FEATURE_DIM, CorpusManifest, generate_corpus


def tiny_run_config(**overrides) -> RunConfig:
    base = dict(d=12, d_w=8, d_v=FEATURE_DIM, k_neighbors=2, steps=2,
                dropout=0.0, lr=4e-4, epochs=2, seed=1)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def tiny_manifest():
    return CorpusManifest(seed=21, splits={"train": 12, "val": 6, "test": 4},
                          n_objects=4, rounds=3, candidates=6)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_manifest):
    return generate_corpus(tiny_manifest)


@pytest.fixture(scope="session")
def tiny_setup(tiny_corpus):
    """Config, vocab, initialized model, and encoded instances for the toy corpus."""
    cfg = tiny_run_config()
    vocab = build_vocab(tiny_corpus["train"])
    params = ModelParams.init(cfg, len(vocab), np.random.default_rng(0))
    model = Model(params, cfg)
    encoded = {split: [encode_instance(i, vocab) for i in items]
               for split, items in tiny_corpus.items()}
    return cfg, vocab, model, encoded


def write_config(path, cfg: RunConfig) -> str:
    with open(path, "w") as fh:
        fh.write(cfg.to_json())
    return str(path)


def write_manifest(path, manifest: CorpusManifest) -> str:
    with open(path, "w") as fh:
        fh.write(manifest.to_json())
    return str(path)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory, tiny_manifest, tiny_corpus):
    from cag.synthdial import save_corpus
    out = tmp_path_factory.mktemp("corpus")
    save_corpus(tiny_corpus, tiny_manifest, out)
    return out


def field_paths(node, path=()):
    """Key/index path of every field and sub-field below ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def as_string(v):
    return " ".join(map(str, v)) if isinstance(v, list) else str(v)


def two_elements(v):
    return [v[0], v[0]] if isinstance(v, list) and v else [v, v]


# each replaces one field: literal values, then a string where a list was
# and a two-element list, both built from the field's own value
REPLACEMENTS = [lambda v, r=r: r for r in ([], "", "<pad>", "<unk>", 0, -1, 1.5, None, {})]
REPLACEMENTS += [as_string, two_elements]


def replace_one_field(record, data) -> None:
    """Replace one field or sub-field of the parsed JSON ``record`` in place,
    both drawn from the hypothesis ``data``."""
    path = data.draw(st.sampled_from(list(field_paths(record))))
    replace = data.draw(st.sampled_from(REPLACEMENTS))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = replace(parent[path[-1]])
