"""The verification runner: a fault in one check never hides the others."""

from hkr import catalog
from hkr import verify as vf


def test_unexpected_exception_fails_only_its_check(monkeypatch):
    def planted(an):
        raise ZeroDivisionError("planted fault")

    monkeypatch.setattr(vf, "_check_tds", planted)
    results = vf.verify_form(catalog.form_id("sl_R", n=2), seed=0,
                             samples=2, fiber_samples=1, conjugators=1)
    by_check = {r.check: r for r in results}
    assert not by_check["tds"].ok
    assert by_check["tds"].detail == "ZeroDivisionError: planted fault"
    others = [r for r in results if r.check != "tds"]
    assert len(others) == 10
    assert all(r.ok for r in others), [r.line() for r in others if not r.ok]
    assert all(r.seconds >= 0 for r in results)
