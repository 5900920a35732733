"""Correctness checks on the program's outputs.

Every check works from the generated inputs and what ``Simulator.execute``
returned (its ledger, counts and digest), plus, on crossmatch-hot, the
pairs each scan returned, re-derived by a brute-force oracle over the
generated catalog rather than the stored file.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy

from repro.core.join_evaluator import JoinStrategy
from repro.htm.geometry import angular_separation


class CheckLog:
    """Failed checks, and the queries they failed."""

    def __init__(self) -> None:
        self.messages: List[str] = []
        self.failed_queries: Set[Tuple[int, int]] = set()

    def fail(self, message: str, episode: int, query_ids: Iterable[int] = ()) -> None:
        self.messages.append(f"episode {episode}: {message}")
        self.failed_queries.update((episode, query_id) for query_id in query_ids)

    @property
    def ok(self) -> bool:
        return not self.messages


def check_served(
    log: CheckLog,
    episode: int,
    result,
    admitted: Set[int],
    footprints: Dict[int, Dict[int, int]],
) -> None:
    """Every admitted query completes exactly once, served its whole footprint."""
    entries = result.ledger["queries"]
    seen: Dict[int, int] = {}
    for entry in entries:
        seen[entry["query_id"]] = seen.get(entry["query_id"], 0) + 1
    twice = [query_id for query_id, count in seen.items() if count > 1]
    if twice:
        log.fail(f"{len(twice)} queries appear more than once in the ledger", episode, twice)
    missing = admitted - set(seen)
    if missing:
        log.fail(f"{len(missing)} admitted queries never completed", episode, missing)
    unexpected = set(seen) - admitted
    if unexpected:
        log.fail(f"{len(unexpected)} queries completed without being admitted", episode, unexpected)
    if result.completed_queries != len(admitted):
        log.fail(
            f"completed_queries {result.completed_queries} != {len(admitted)} admitted", episode
        )
    if result.serving is not None and result.serving.completed != len(admitted):
        log.fail(f"serving completed {result.serving.completed} != {len(admitted)}", episode)
    wrong = []
    for entry in entries:
        served: Dict[int, int] = {}
        for bucket in entry["buckets"]:
            if bucket["bucket"] in served:
                wrong.append(entry["query_id"])  # a bucket share served twice
            served[bucket["bucket"]] = served.get(bucket["bucket"], 0) + bucket["objects"]
        if served != footprints.get(entry["query_id"]):
            wrong.append(entry["query_id"])
    if wrong:
        log.fail(
            f"{len(set(wrong))} queries were not served exactly their footprint", episode, wrong
        )


class CrossmatchOracle:
    """Brute-force matches of an object against catalog rows.

    For one object and one bucket, the expected matches are the catalog rows
    whose HTM ID lies inside both the object's bounding range and the
    bucket's range, and whose separation from the object is within the
    match radius: a full scan of the catalog, not a search of the store.
    """

    def __init__(self, catalog) -> None:
        rows = catalog.rows
        self._rows = rows
        self._ids = numpy.array([row.htm_id for row in rows], dtype=numpy.int64)
        self._memo: Dict[Tuple[int, int], frozenset] = {}

    def matches(self, obj, bucket_low: int, bucket_high: int) -> frozenset:
        key = (obj.object_id, bucket_low)
        found = self._memo.get(key)
        if found is None:
            low = max(obj.htm_range.low, bucket_low)
            high = min(obj.htm_range.high, bucket_high)
            window = numpy.flatnonzero((self._ids >= low) & (self._ids <= high))
            found = frozenset(
                self._rows[i].object_id
                for i in window.tolist()
                if angular_separation(obj.ra, obj.dec, self._rows[i].ra, self._rows[i].dec)
                * 3600.0
                <= obj.match_radius_arcsec
            )
            self._memo[key] = found
        return found


def check_crossmatch(
    log: CheckLog,
    episode: int,
    services: List[tuple],
    oracle: Optional[CrossmatchOracle],
    bucket_ranges: List[Tuple[int, int]],
) -> Dict[str, int]:
    """Compare every scan's returned pairs with the oracle.

    *services* holds ``(bucket index, entries, JoinResult)`` per bucket
    service.  Services on the indexed path return estimates (the simulator
    passes an empty spatial index), so they are counted, not checked.
    """
    counted = {"scan_services": 0, "estimated_services": 0, "pairs_checked": 0}
    bad: Set[int] = set()
    for bucket_index, entries, join in services:
        if join.strategy is not JoinStrategy.SEQUENTIAL_SCAN:
            counted["estimated_services"] += 1
            continue
        counted["scan_services"] += 1
        if oracle is None:
            continue
        returned: Dict[Tuple[int, int], Set[int]] = {}
        for pair in join.matches:
            if pair.separation_arcsec > pair.workload_object.match_radius_arcsec:
                bad.add(pair.query_id)
            returned.setdefault((pair.query_id, pair.workload_object.object_id), set()).add(
                pair.catalog_object.object_id
            )
        bucket_low, bucket_high = bucket_ranges[bucket_index]
        for entry in entries:
            for obj in entry.objects:
                expected = oracle.matches(obj, bucket_low, bucket_high)
                got = returned.pop((entry.query_id, obj.object_id), set())
                counted["pairs_checked"] += len(expected)
                if got != expected:
                    bad.add(entry.query_id)
        for query_id, _object_id in returned:
            bad.add(query_id)  # pairs for objects that were never queued here
    if bad:
        log.fail(f"{len(bad)} queries got scan pairs that disagree with the oracle", episode, bad)
    return counted
