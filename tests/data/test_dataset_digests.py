"""Bitwise pins of the generated datasets.

Each digest is a SHA-256 over a profile's sequences, its ``item_concepts``,
its concept adjacency and (when present) its session ids, serialised with
explicit little-endian dtypes.  Every golden run and benchmark figure
is downstream of these arrays, so a change that is not meant to move the
data must leave them bit-identical; one that is meant to move it updates
the pins in the same commit, and says so.
"""

import hashlib

import numpy as np
import pytest

from repro.data import available_profiles, load_dataset

# (profile, scale, sessions) -> digest
DIGESTS = {
    ("beauty", 1.0, False):
        "b7c43fcb88ffea254afa83d496ce20de8e2a160e9c08dc0f43f8f2f93a311c4c",
    ("epinions", 1.0, False):
        "940f25f51b41ae9ded40d7e7278d1d4d742b548e6fcd86b05941c215b3b70597",
    ("ml-1m", 1.0, False):
        "38ef352a91fa28df7f7f590d6fbb96df563f84402373b4fad42e34c7a414ae10",
    ("ml-20m", 1.0, False):
        "d2ff43d42b57288a674b1e813cf5bffc398f9e8c84ba65460ef4ae977a64cac0",
    ("steam", 1.0, False):
        "50b57edf2c9f818d3e254c762800b13b8e75a003218678d41bd6b7872940c31d",
    # The two perfbench datasets (``train`` and the serving workloads).
    ("ml-1m", 4.0, False):
        "626e5507465ef0c4cd2480af22d3ceb946f2e61b818e4fbe310651283577cd7c",
    ("beauty", 2.0, False):
        "2646b1594bc45416d8094cfc2ce765a51686f04fd0d760834d0bc49e51e51af5",
    ("beauty", 1.0, True):
        "dc5d95430ae73666c66c2397282a46f11f9593a659e751de33497646dae57941",
}


def dataset_digest(dataset) -> str:
    """SHA-256 over the arrays that define a generated dataset."""
    arrays = [np.asarray([len(seq) for seq in dataset.sequences], dtype="<i8")]
    arrays += [np.asarray(seq, dtype="<i8") for seq in dataset.sequences]
    arrays += [np.asarray(dataset.item_concepts, dtype="<f4"),
               np.asarray(dataset.concept_space.adjacency, dtype="<f4")]
    if dataset.session_ids is not None:
        arrays += [np.asarray(ids, dtype="<i8") for ids in dataset.session_ids]
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_every_profile_is_pinned():
    pinned = {name for name, scale, sessions in DIGESTS
              if scale == 1.0 and not sessions}
    assert pinned == set(available_profiles())


@pytest.mark.parametrize("profile,scale,sessions", sorted(DIGESTS))
def test_dataset_is_bitwise_unchanged(profile, scale, sessions):
    dataset = load_dataset(profile, scale=scale, sessions=sessions, cache=False)
    assert dataset_digest(dataset) == DIGESTS[(profile, scale, sessions)]
