"""Generated JSON straight into the three JSON readers.

Each reader must return or raise a LipfreeError, never another exception,
whether it gets the decoded value or its JSON text.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree import LipfreeError, free_element_from_json, load_space, plan_from_json

KEYS = ("point", "coef", "n", "dist", "family", "x_idx", "r", "case")
RATIONALS = ("1/2", "-3/4", "1/0", "0/0", "x", "", "1/2/3", " 7 ", "1e5", "nan", "inf", "1_0")
HUGE = (10**400, -(10**400), 2**64, -1)
LABELS = ("uniform:1", "remark:2", "convline", "intline", "geomline", "dendro:3:5", "uniform:0",
          "remark:9", "dendro:1:600", "nope")

# plan_from_json reads the file that a "file:..." family label names; no
# generated string starts with "file", so the fuzz touches no file
text = st.text(max_size=6).filter(lambda s: not s.startswith("file"))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(HUGE)
    | st.floats()
    | st.sampled_from(RATIONALS)
    | text
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | text, inner, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-2, 40) | st.sampled_from(HUGE)
rationals = st.integers(0, 9) | st.sampled_from(RATIONALS) | st.floats(0, 9) | values

elements = st.lists(
    st.fixed_dictionaries({"point": small_ints | values, "coef": rationals})
    | st.fixed_dictionaries({"point": small_ints}),
    max_size=4,
)
spaces = st.fixed_dictionaries(
    {"dist": st.lists(st.lists(rationals, max_size=4), max_size=4) | values},
    optional={"n": small_ints | values},
)
plans = st.fixed_dictionaries(
    {
        "family": st.sampled_from(LABELS) | values,
        "x_idx": st.lists(small_ints, max_size=5) | values,
        "r": st.lists(rationals, max_size=5) | values,
    },
    optional={"case": values},
)


def _feed(reader, value) -> None:
    """The reader on the value, its JSON text and that text's UTF-8 bytes."""
    blob = json.dumps(value)
    for source in (value, blob, blob.encode()):
        try:
            reader(source)
        except LipfreeError:
            pass


@settings(max_examples=120, derandomize=True, deadline=None)
@given(value=elements | values)
def test_free_element_reader(value):
    _feed(free_element_from_json, value)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(value=spaces | values)
def test_space_reader(value):
    _feed(load_space, value)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(value=plans | values)
def test_plan_reader(value):
    _feed(plan_from_json, value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(source=st.text(max_size=20) | st.binary(max_size=20))
def test_readers_on_raw_text(source):
    for reader in (free_element_from_json, load_space, plan_from_json):
        try:
            reader(source)
        except LipfreeError:
            pass
