"""Census of the static phase over every built-in program.

For each spin window k in 3..8 and inline depth 0..2, the uncached
instrumentation phase runs over all built-in registry programs (the
suite, PARSEC, SPLASH and chaos models — not workloads tests register).
Each (k, depth) pins the total of accepted spin loops and one sha256
over the sorted ``(program name, marker-table digest)`` pairs, so a
change to loop finding, spin classification or marker-table layout at
any window or depth shows up here — including windows and depths the
golden corpus never runs.
"""

import hashlib

import pytest

from repro.analysis import instrument_program
from repro.harness import registry
from repro.vm.decode import imap_decode_key

_D0 = "8799433e7a47cce8c5f521adbf396aadf3c1630c4df4b8db8f789afaef613e55"

#: (inline depth, spin window) -> (accepted loops, sha256 of the tables)
PINS = {
    **{(0, k): (742, _D0) for k in range(3, 9)},
    (1, 3): (742, _D0),
    (1, 4): (742, _D0),
    (1, 5): (743, "6c309db03c310cf60a59b32c362051490c5c779527b707a4894a5d488b532615"),
    (1, 6): (743, "6c309db03c310cf60a59b32c362051490c5c779527b707a4894a5d488b532615"),
    (1, 7): (768, "d78b25f1d13969389d4d7032b24ddaeb0e0b3380e8086f64d9f552ba52dc172e"),
    (1, 8): (768, "d78b25f1d13969389d4d7032b24ddaeb0e0b3380e8086f64d9f552ba52dc172e"),
    (2, 3): (742, _D0),
    (2, 4): (743, "9c1966762f593bec47740cfebbaf8dcb8b036d195c71dae4f53c7b39b1868248"),
    (2, 5): (744, "4683b3013b907fc8df737ec31bac325a4f66f1bd56e0f7fead5e89635025c960"),
    (2, 6): (744, "4683b3013b907fc8df737ec31bac325a4f66f1bd56e0f7fead5e89635025c960"),
    (2, 7): (769, "493f6e72c03da83f249adb78185136e7bea0f80c8a54c9bf9d7fdaeb0650d223"),
    (2, 8): (769, "493f6e72c03da83f249adb78185136e7bea0f80c8a54c9bf9d7fdaeb0650d223"),
}


@pytest.fixture(scope="module")
def programs():
    index = registry._builtin_index()
    assert len(index) == 141
    return {name: wl.fresh_program() for name, wl in sorted(index.items())}


@pytest.mark.parametrize("depth,window", sorted(PINS))
def test_census(programs, depth, window):
    loops = 0
    pairs = []
    for name, program in programs.items():
        imap = instrument_program(program, max_blocks=window, inline_depth=depth)
        loops += imap.num_loops
        pairs.append((name, imap_decode_key(imap)))
    digest = hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()
    assert (loops, digest) == PINS[(depth, window)]
