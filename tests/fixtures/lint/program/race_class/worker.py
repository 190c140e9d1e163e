"""Fixture: memo caches reached only through a class of the same module."""

import functools


@functools.lru_cache(maxsize=None)
def corpus(seed):
    return seed * 2


@functools.lru_cache(maxsize=None)
def layout(seed):
    return seed + 1


class _Builder:
    def __init__(self, seed):
        self.corpus = corpus(seed)

    def build(self, seed):
        return layout(seed)


def build_world(seed):
    builder = _Builder(seed)
    return builder.build(seed)


def work(task):
    return build_world(task)


def main(pool, tasks):
    return pool.run(tasks, work)
