"""Wrapping the program from outside: a public function is replaced
wherever it was imported, and a name that is gone is noted, not raised."""

import pytest

import hooks

store = pytest.importorskip("repro.service.store")
reader = pytest.importorskip("repro.analytics.reader")


def counting(calls):
    def wrap(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper
    return wrap


def test_a_function_is_replaced_where_it_was_imported_by_name(monkeypatch):
    original = store.decode_journal_line
    for module in (store, reader):      # put back when the test ends
        monkeypatch.setattr(module, "decode_journal_line", original)
    calls, notes = [], []
    assert hooks.replace("repro.service.store:decode_journal_line",
                         counting(calls), notes)
    assert notes == []
    assert reader.decode_journal_line is store.decode_journal_line
    assert reader.decode_journal_line is not original
    reader.decode_journal_line("not a journal line")
    assert calls == [original]


def test_a_method_is_replaced_on_its_class(monkeypatch):
    original = store.JournalStore.replay
    monkeypatch.setattr(store.JournalStore, "replay", original)
    calls = []
    assert hooks.replace("repro.service.store:JournalStore.replay",
                         counting(calls), [])
    assert store.JournalStore.replay is not original


@pytest.mark.parametrize("path", [
    "repro.service.store:no_such_function",
    "repro.service.store:JournalStore.no_such_method",
    "repro.service.store:NoSuchClass.append",
    "repro.no_such_module:anything",
])
def test_a_name_the_program_no_longer_has_is_noted(path):
    notes = []
    assert not hooks.replace(path, counting([]), notes)
    assert len(notes) == 1 and path in notes[0]
