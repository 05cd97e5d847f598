"""Suppression directives in every supported position."""
import random

rdd.map(lambda x: x + random.random()).collect()  # repro: lint-ignore[C104]

# repro: lint-ignore[C104]
rdd.map(lambda x: x - random.random()).collect()

rdd.map(lambda x: x * random.random()).collect()  # repro: lint-ignore

# repro: lint-ignore[C101, C104]
rdd.map(lambda x: x + random.random()).collect()

rdd.map(lambda x: x + random.random()).collect()  # repro: lint-ignore[C103]
