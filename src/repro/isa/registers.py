"""SPARC V8 windowed register file.

Leon3 implements the SPARC register-window scheme: 8 global registers
plus a sliding window of 24 registers (8 *in*, 8 *local*, 8 *out*) over
a circular bank of ``NWINDOWS * 16`` physical registers.  ``save``
decrements the current window pointer (CWP), ``restore`` increments it.

The FlexCore trace packet (Table II) carries 9-bit *physical* register
numbers so the fabric-side shadow register file can mirror every
physical register without tracking CWP itself; :meth:`RegisterFile.
physical_index` performs that translation.
"""

from __future__ import annotations

DEFAULT_NWINDOWS = 8

#: Architectural register-name aliases -> architectural index 0..31.
REGISTER_ALIASES = {}
for _i in range(8):
    REGISTER_ALIASES[f"g{_i}"] = _i
    REGISTER_ALIASES[f"o{_i}"] = 8 + _i
    REGISTER_ALIASES[f"l{_i}"] = 16 + _i
    REGISTER_ALIASES[f"i{_i}"] = 24 + _i
for _i in range(32):
    REGISTER_ALIASES[f"r{_i}"] = _i
REGISTER_ALIASES["sp"] = 14  # %o6
REGISTER_ALIASES["fp"] = 30  # %i6


def parse_register(name: str) -> int:
    """Parse an assembly register name like ``%o3`` or ``%sp``."""
    text = name.strip().lstrip("%").lower()
    if text not in REGISTER_ALIASES:
        raise ValueError(f"unknown register name: {name!r}")
    return REGISTER_ALIASES[text]


def register_name(index: int) -> str:
    """Render an architectural register index as its canonical name."""
    if not 0 <= index < 32:
        raise ValueError(f"register index out of range: {index}")
    bank = "goli"[index // 8]
    return f"%{bank}{index % 8}"


class WindowOverflow(Exception):
    """Raised when ``save`` runs out of register windows."""


class WindowUnderflow(Exception):
    """Raised when ``restore`` returns past the last valid window."""


class RegisterFile:
    """Windowed integer register file.

    Physical layout: indices ``0..7`` are the globals; window ``w``
    owns physical registers ``8 + w*16 .. 8 + w*16 + 15`` for its
    *outs* and *locals*; its *ins* alias the next window's *outs*,
    which implements the caller-outs == callee-ins overlap of `save`.
    """

    def __init__(self, nwindows: int = DEFAULT_NWINDOWS):
        if nwindows < 2:
            raise ValueError("need at least 2 register windows")
        self.nwindows = nwindows
        self.cwp = 0
        self._phys = [0] * (8 + 16 * nwindows)
        # Depth of nested `save`s relative to the start window; used to
        # detect overflow/underflow without modelling the WIM register.
        self._depth = 0

    @property
    def cwp(self) -> int:
        """Current window pointer."""
        return self._cwp

    @cwp.setter
    def cwp(self, window: int) -> None:
        self._cwp = window
        # Architectural -> physical index for this window, rebuilt on
        # every CWP change so the per-access paths are one lookup.
        self._map = {
            arch: self._window_index(arch, window) for arch in range(32)
        }

    @property
    def num_physical(self) -> int:
        """Total number of physical registers (globals + window bank)."""
        return len(self._phys)

    def physical_index(self, arch_index: int, cwp: int | None = None) -> int:
        """Translate an architectural register index (0..31) under the
        given (default current) window pointer to a physical index."""
        if cwp is None:
            try:
                return self._map[arch_index]
            except KeyError:
                pass
        elif 0 <= arch_index < 32:
            return self._window_index(arch_index, cwp)
        raise ValueError(f"register index out of range: {arch_index}")

    def _window_index(self, arch_index: int, window: int) -> int:
        if arch_index < 8:
            return arch_index
        # Window w owns slot w for its outs (offsets 0..7) and locals
        # (offsets 8..15); its ins alias slot w+1's outs — which is
        # exactly the caller's out registers, since `save` decrements
        # the CWP.
        if arch_index < 16:  # outs
            slot = window
            offset = arch_index - 8
        elif arch_index < 24:  # locals
            slot = window
            offset = 8 + (arch_index - 16)
        else:  # ins
            slot = (window + 1) % self.nwindows
            offset = arch_index - 24
        return 8 + slot * 16 + offset

    def read(self, arch_index: int) -> int:
        """Read an architectural register; %g0 always reads zero."""
        if arch_index == 0:
            return 0
        try:
            return self._phys[self._map[arch_index]]
        except KeyError:
            raise ValueError(
                f"register index out of range: {arch_index}"
            ) from None

    def write(self, arch_index: int, value: int) -> None:
        """Write an architectural register; writes to %g0 are ignored."""
        if arch_index == 0:
            return
        try:
            self._phys[self._map[arch_index]] = value & 0xFFFFFFFF
        except KeyError:
            raise ValueError(
                f"register index out of range: {arch_index}"
            ) from None

    def read_physical(self, phys_index: int) -> int:
        """Direct physical read (used by tests and the shadow file)."""
        return self._phys[phys_index]

    def save(self) -> None:
        """Execute the window rotation of a ``save`` instruction."""
        if self._depth + 1 >= self.nwindows - 1:
            raise WindowOverflow(f"save beyond {self.nwindows} windows")
        self.cwp = (self.cwp - 1) % self.nwindows
        self._depth += 1

    def restore(self) -> None:
        """Execute the window rotation of a ``restore`` instruction."""
        if self._depth == 0:
            raise WindowUnderflow("restore past the initial window")
        self.cwp = (self.cwp + 1) % self.nwindows
        self._depth -= 1

    def snapshot(self) -> list[int]:
        """Copy of the current architectural registers 0..31."""
        return [self.read(i) for i in range(32)]

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).

    def snapshot_state(self) -> dict:
        """Full physical state: window pointer, save depth, bank."""
        return {
            "cwp": self.cwp,
            "depth": self._depth,
            "phys": list(self._phys),
        }

    def restore_state(self, state: dict) -> None:
        phys = state["phys"]
        if len(phys) != len(self._phys):
            raise ValueError(
                f"register snapshot holds {len(phys)} physical "
                f"registers, this file has {len(self._phys)}"
            )
        self.cwp = state["cwp"]
        self._depth = state["depth"]
        self._phys[:] = phys
