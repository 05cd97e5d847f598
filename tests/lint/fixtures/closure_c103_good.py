"""C103 negative: count in the reduction, not in a module global."""
seen = rdd.aggregate(0, lambda n, x: n + 1, lambda a, b: a + b)
