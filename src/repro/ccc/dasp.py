"""The DASP Top-10 vulnerability taxonomy used throughout the study."""

from __future__ import annotations

import enum


class DaspCategory(enum.Enum):
    """The ten categories of the Decentralized Application Security Project.

    The paper maps its 17 queries to these categories (Section 2.2) and
    reports all evaluation tables per category.
    """

    ACCESS_CONTROL = "Access Control"
    ARITHMETIC = "Arithmetic"
    BAD_RANDOMNESS = "Bad Randomness"
    DENIAL_OF_SERVICE = "Denial of Service"
    FRONT_RUNNING = "Front Running"
    REENTRANCY = "Reentrancy"
    SHORT_ADDRESSES = "Short Addresses"
    TIME_MANIPULATION = "Time Manipulation"
    UNCHECKED_LOW_LEVEL_CALLS = "Unchecked Low Level Calls"
    UNKNOWN_UNKNOWNS = "Unknown Unknowns"
