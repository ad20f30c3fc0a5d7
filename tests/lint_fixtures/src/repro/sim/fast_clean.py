"""FAST-001 clean: validated kernel entry points; unrelated heappush and
append."""

from heapq import heappush


def hurry(env, fn, delay):
    env.schedule(delay, fn)
    env.schedule_at(env.now + delay, fn)


def unrelated(backlog, item):
    # heappush onto a non-event-queue container is not a fast path.
    heappush(backlog, item)


def unrelated_append(log, item):
    # Appending to a list that is not the kernel lane is not a fast path.
    log.append(item)
