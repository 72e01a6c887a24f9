import pytest

from charzero.dixon import dixon_character_table, zero_census
from charzero.matgroup import conjugacy_classes, gl_group


@pytest.fixture(scope="session")
def gl2_census():
    """(table, census) per q for the GL2 family used across suites."""
    out = {}
    for q in (2, 3, 4, 5):
        g = gl_group(2, q)
        cd = conjugacy_classes(g)
        t = dixon_character_table(g, cd)
        out[q] = (t, zero_census(t))
    return out


@pytest.fixture(scope="session")
def gl3_census():
    out = {}
    for q in (2, 3):
        g = gl_group(3, q)
        cd = conjugacy_classes(g)
        t = dixon_character_table(g, cd)
        out[q] = (t, zero_census(t))
    return out


@pytest.fixture
def nullspace_nullities(monkeypatch):
    """The nullity of every `_mod_nullspace` call that `dixon` makes, in order."""
    import charzero.dixon as dixon

    nullities = []
    real = dixon._mod_nullspace
    monkeypatch.setattr(dixon, "_mod_nullspace",
                        lambda M, l: nullities.append(len(real(M, l))) or real(M, l))
    return nullities
