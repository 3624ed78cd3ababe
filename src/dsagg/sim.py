"""In-process broadcast-round simulator.

One synchronous, error-free round: keys are dealt, every user encodes and
broadcasts, every user decodes the others' sum and adds its own input. All
users encode at once and decode at once, each step one array computation;
encoding is pure, so identical parameters, precoder, seed, and input source
always produce a byte-identical transcript.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import Precoder, SchemeParams, encode, recover, sample_keys

TRANSCRIPT_MAGIC = "DSAT1"


@dataclass(frozen=True)
class Transcript:
    """Everything one round produced, in broadcast order."""

    params: SchemeParams
    seed: int
    inputs: np.ndarray     # K x L
    messages: np.ndarray   # K x L
    recovered: np.ndarray  # K x L global-sum claims
    verdict: bool

    def to_text(self) -> str:
        p = self.params
        lines = [f"{TRANSCRIPT_MAGIC} {p.K} {p.T} {p.G} {p.q} {p.m} {self.seed}"]
        for tag, table in (("W", self.inputs), ("X", self.messages), ("R", self.recovered)):
            for k in p.users:
                row = " ".join(str(int(v)) for v in table[k - 1])
                lines.append(f"{tag} {k} {row}")
        lines.append(f"VERDICT {'pass' if self.verdict else 'fail'}")
        return "\n".join(lines) + "\n"


def make_inputs(precoder: Precoder, source, seed) -> np.ndarray:
    """Materialize the K x L input table from a source selector.

    ``source`` is "random" (seeded uniform), "zero", or an explicit
    array-like; the scheme must work for any of them, so nothing here
    assumes uniformity.
    """
    p, shape = precoder.params, (precoder.params.K, precoder.L)
    if isinstance(source, str):
        if source == "zero":
            return np.zeros(shape, dtype=np.int64)
        if source == "random":
            rng = np.random.Generator(np.random.PCG64(seed))
            return rng.integers(0, p.q, size=shape, dtype=np.int64)
        raise ValueError(f"unknown input source {source!r}")
    arr = p.field.reduce(source)
    if arr.shape != shape:
        raise ValueError(f"inputs must be {shape[0]} x {shape[1]}, got {arr.shape}")
    return arr


def run_round(precoder: Precoder, input_source="random", seed: int = 0) -> Transcript:
    """Deal keys, broadcast every message, and decode at every user.

    Key and input randomness are derived from disjoint children of the seed,
    so transcripts are reproducible and keys never correlate with inputs.
    """
    params = precoder.params
    key_ss, input_ss = np.random.SeedSequence(seed).spawn(2)
    keys = sample_keys(precoder, key_ss)
    inputs = make_inputs(precoder, input_source, input_ss)
    masks = precoder.masks(keys)
    messages = encode(precoder, masks, inputs)
    recovered = (recover(precoder, masks, messages) + inputs) % params.q
    verdict = bool((recovered == inputs.sum(axis=0) % params.q).all())
    return Transcript(params, seed, inputs, messages, recovered, verdict)
