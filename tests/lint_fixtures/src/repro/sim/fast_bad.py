"""FAST-001 true positive: unvalidated pushes outside the allowlist."""

from heapq import heappush


def hurry(env, fn, delay):
    env._push(env._now + delay, fn, ())


def sneak(env, fn, delay):
    heappush(env._queue, (env._now + delay, 0, fn, ()))


def sneak_alias(env, fn, delay):
    queue = env._queue
    heappush(queue, (env._now + delay, 0, fn, ()))


def sneak_lane(env, fn, delay):
    env._lane.append((env._now + delay, 0, fn, ()))
