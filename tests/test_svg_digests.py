"""SHA-256 locks on SVG documents too large to keep as golden files.

``test_golden_svgs`` stops at six twists and 8/13.  These digests cover
the taffy values of the ``diagrams`` benchmark workload, each in all
four orientations a/b, b/a, -a/b and -b/a, and seeded tangles of 300
and 2,000 twists.  A changed digest means the drawing changed.
"""

import hashlib
import random

import pytest

from pullcalc import build_taffy, build_tangle, make, render_taffy_svg, render_tangle_svg
from pullcalc.diagrams.taffy import TaffyReport, verify_taffy

TAFFY_DIGESTS = {
    (8, 13): "bc70ce8f6b746890dfe0b52f935dc2aed32ed8930dfafd99ec3696cb7551986c",
    (13, 8): "80aa3d3f94eca5776f54b9e61ede72ea8f7b8406e58fc832b00d29bd561cb44f",
    (-8, 13): "44b6f87bb3020e93c0514bebac7a4f942d058fe22da39a58fc33f3ad1945a71b",
    (-13, 8): "2341042cfc26199fbe7f7c09bd2ed1029b7c8b9ff01fca8bd892f040b7f57d76",
    (21, 34): "968849f03ce157d6a391d0d84d5bbf23fe9becabf54f8de48050a7cbe3dc9ca7",
    (34, 21): "4b255e9a7350342332542b5dadb139ef8f47afc50ae13203a8cf7fedf286c7e0",
    (-21, 34): "2be0c6f16e71492b57cb3eac2d7de82b329ac1d465b779d98aa163efcff7a26e",
    (-34, 21): "66aca9682b3f9c1c7dcc30aad50beefd89394f0d9a1f8f653abd313539cf02fc",
    (43, 100): "9eee05536d17d6789c704dabd3574cd9148ac99a923a9f121f68cd881445cfcd",
    (100, 43): "d56395b45efc2ca33a14956942f1eb955ff347749301bc4bb4b6de9ee50e181e",
    (-43, 100): "85f9d7f4b5c6e3ecb83e06d2f3c96e9313737b1fe3e0cbdf14dc5272bac863fb",
    (-100, 43): "125015cb3760b26dbbe1d138b51cc9a6a2d22d35c1c5f553cabacc19d3f6287d",
    (144, 233): "b58f4259cc7261d910861121398a6f171641ae54e1f5395e0ca450e95aab87b7",
    (233, 144): "8be2b4d18c5f45fb242d82e8017e7db800ff1373bd1e65bb5334b05a3db5d31e",
    (-144, 233): "6ba4c932535d5d648ac1e0bddfd00de26e8b6aec01f7d0a26863320f6b6d2ad0",
    (-233, 144): "ae2efc4d71d15edb1aafedb7cfa7cb9dc94a51dfda012e6fcf1d571efe3a4ee7",
    (233, 377): "cbec71c8318cddff6e5fbc93573d2dbbec7cdeef1e62b2b0710d0b6b9835e367",
    (377, 233): "a69705895f5433e33f76f5e5ee3ebe05cdcfb34fe84da2d9218ce3d8efe8bdc0",
    (-233, 377): "44a12c98416868fbd9ba2729ea3c1f5323619c0cfe207146f67f46b624f6926d",
    (-377, 233): "e7da8acbeba41c385cd82bf0d0441690fb44c754e45f7d99a8ad86c62ee33ac1",
}

# seeded twist words: random.Random(seed), one randrange(4) code per twist
TANGLE_DIGESTS = {
    (300, 300): "1d745ec81494a436fc1dd8800768eb58d51bd45c6a403a38c6fa813ae6f76cbc",
    (2000, 2000): "480ec0f521a3725505c8409023c9288885819f8022749ecfacb8c75e7565ff4e",
}


def sha256(svg: str) -> str:
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("num,den", sorted(TAFFY_DIGESTS))
def test_taffy_svg_digest(num, den):
    d = build_taffy(make(num, den))
    assert verify_taffy(d) == TaffyReport(d.counts, d.counts, True, True, True)
    assert sha256(render_taffy_svg(d)) == TAFFY_DIGESTS[num, den]


@pytest.mark.parametrize("seed,twists", sorted(TANGLE_DIGESTS))
def test_tangle_svg_digest(seed, twists):
    rng = random.Random(seed)
    word = tuple(rng.randrange(4) for _ in range(twists))
    assert sha256(render_tangle_svg(build_tangle(word))) == TANGLE_DIGESTS[seed, twists]
