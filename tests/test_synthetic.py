"""The synthetic families: one generator each, every draw pinned."""

import hashlib

import numpy as np
import pytest

from tsicl.synthetic import FAMILIES, SynthSpec, generate

# SHA-256 of a tiny spec's channels per family, values rounded to 10 decimals:
# numpy's sin may differ in its last bits between builds, while a change to a
# family's draw moves its values far more than that.
FAMILY_VALUES_SHA256 = {
    "sinusoid_mixture": "adaccf9a646e8ead37f460af0da54f7d20ad5b111d8704468e7d5da35f8eb349",
    "ar2": "61a1b94ab3dcee2ffdbf4b24a98762c61ac8d99282a6f8eb56ba672cbd469bbf",
}


def test_every_family_is_pinned():
    assert set(FAMILIES) == set(FAMILY_VALUES_SHA256)


@pytest.mark.parametrize("family", sorted(FAMILY_VALUES_SHA256))
def test_each_familys_draw_keeps_its_values(family):
    digest = hashlib.sha256()
    data = generate(SynthSpec(family=family, count=2, length=64, seed=3))
    for channel, values in zip(data.channels, data.values.T):
        digest.update(channel.encode())
        digest.update(np.round(values, 10).tobytes())
    assert digest.hexdigest() == FAMILY_VALUES_SHA256[family]
