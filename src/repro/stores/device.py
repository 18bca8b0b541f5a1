"""End-user devices (paper Sections 2.1 and 3.1).

Alice's world: a SprintPCS cell phone with on-phone phone book, ring
tones, speed keys and WAP bookmarks; a Vodafone GSM phone whose
"European" phone book lives on the removable SIM card; a PDA whose
address book and calendar sync with a portal. Devices are profile
stores too (Figure 5: "end-user device"), and they are the primary
subjects of synchronization (requirement 7).

Each device keeps a monotonically increasing local change counter so
the sync layer can run SyncML-style fast syncs against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import StoreError
from repro.seqlog import SeqLog
from repro.stores.base import NativeStore

__all__ = ["SimCard", "PhoneBookEntry", "MobilePhone", "Pda"]


class PhoneBookEntry:
    """One on-device contact: name + a single number (devices store
    less than network books — a real constraint for reconciliation).
    The number's kind is kept so network syncs round-trip losslessly.
    """

    def __init__(
        self,
        entry_id: str,
        name: str,
        number: str,
        number_type: str = "cell",
    ):
        self.entry_id = entry_id
        self.name = name
        self.number = number
        self.number_type = number_type

    def as_tuple(self) -> Tuple[str, str, str]:
        return (self.entry_id, self.name, self.number)


class SimCard:
    """A removable SIM: identity plus its own phone book and prefs.

    The paper notes European users keep data on the SIM "that can be
    transparently exchanged between devices" — so the SIM, not the
    phone, owns this storage."""

    def __init__(self, imsi: str, msisdn: str, capacity: int = 100):
        self.imsi = imsi
        self.msisdn = msisdn
        self.capacity = capacity
        self.phonebook: Dict[str, PhoneBookEntry] = {}
        self.preferences: Dict[str, str] = {}

    def store_entry(self, entry: PhoneBookEntry) -> None:
        if (
            entry.entry_id not in self.phonebook
            and len(self.phonebook) >= self.capacity
        ):
            raise StoreError("SIM phone book full")
        self.phonebook[entry.entry_id] = entry


class _Device(NativeStore):
    """A store with a local change feed for SyncML-style fast syncs."""

    def __init__(self, name: str, network: str, user_id: str):
        super().__init__(name, network=network, region="wireless")
        self.user_id = user_id
        self._changes: SeqLog[Tuple[int, str, str]] = SeqLog()

    @property
    def change_counter(self) -> int:
        """Monotone change counter for fast sync."""
        return self._changes.last_seq

    def _record_change(self, op: str, item_id: str) -> None:
        seq = self._changes.last_seq + 1
        self._changes.append((seq, op, item_id))

    def changes_since(self, counter: int) -> List[Tuple[int, str, str]]:
        return self._changes.since(counter)


class MobilePhone(_Device):
    """A handset: on-phone storage plus an optional SIM slot."""

    PROFILE_DATA = (
        "phone book", "ring tones", "speed keys", "WAP bookmarks",
        "phone preferences",
    )

    def __init__(
        self,
        name: str,
        user_id: str,
        carrier: str,
        sim: Optional[SimCard] = None,
    ):
        super().__init__(name, "Wireless", user_id)
        self.carrier = carrier
        self.sim = sim
        self.phonebook: Dict[str, PhoneBookEntry] = {}
        self.preferences: Dict[str, str] = {}
        self.wap_bookmarks: Dict[str, str] = {}
        self.powered_on = False

    # -- power / SIM ----------------------------------------------------------

    def power_on(self) -> None:
        self.powered_on = True

    def power_off(self) -> None:
        self.powered_on = False

    def insert_sim(self, sim: SimCard) -> None:
        self.sim = sim

    def eject_sim(self) -> Optional[SimCard]:
        """The European trick: the SIM (and its phone book) walks away."""
        sim, self.sim = self.sim, None
        return sim

    # -- phone book -------------------------------------------------------------

    def store_entry(self, entry: PhoneBookEntry, on_sim: bool = False) -> None:
        if on_sim:
            if self.sim is None:
                raise StoreError("no SIM inserted")
            self.sim.store_entry(entry)
        else:
            self.phonebook[entry.entry_id] = entry
        self._record_change("put", entry.entry_id)

    def delete_entry(self, entry_id: str) -> None:
        if entry_id in self.phonebook:
            del self.phonebook[entry_id]
        elif self.sim is not None and entry_id in self.sim.phonebook:
            del self.sim.phonebook[entry_id]
        else:
            raise StoreError("no entry %r" % entry_id)
        self._record_change("delete", entry_id)

    def all_entries(self) -> List[PhoneBookEntry]:
        """Phone + SIM books merged (SIM entries win id clashes, they
        are the user's 'portable truth')."""
        merged = dict(self.phonebook)
        if self.sim is not None:
            merged.update(self.sim.phonebook)
        return [merged[key] for key in sorted(merged)]

    # -- preferences ---------------------------------------------------------

    def set_preference(self, name: str, value: str) -> None:
        self.preferences[name] = value
        self._record_change("pref", name)

    def add_wap_bookmark(self, mark_id: str, url: str) -> None:
        self.wap_bookmarks[mark_id] = url
        self._record_change("wap", mark_id)


class Pda(_Device):
    """A personal digital assistant with address book + calendar."""

    PROFILE_DATA = ("address book", "calendar", "memos")

    def __init__(self, name: str, user_id: str):
        super().__init__(name, "Web", user_id)
        self.contacts: Dict[str, PhoneBookEntry] = {}
        self.appointments: Dict[str, Tuple[str, str, str]] = {}

    def store_contact(self, entry: PhoneBookEntry) -> None:
        self.contacts[entry.entry_id] = entry
        self._record_change("put-contact", entry.entry_id)

    def store_appointment(
        self, appt_id: str, start: str, end: str, subject: str
    ) -> None:
        self.appointments[appt_id] = (start, end, subject)
        self._record_change("put-appt", appt_id)
