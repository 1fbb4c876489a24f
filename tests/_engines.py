"""Engine routes for tests that compare the counting-table engine with
enumeration: every game of up to the enumeration limit enumerated, as before
the table answered any of them, or every game read from its table with
enumeration refused outright."""

from wvg import exact


def route_to_enumeration(mp) -> None:
    """Enumerate games up to the enumeration limit and count larger ones on
    the table, through ``mp`` (a ``pytest.MonkeyPatch``)."""
    for name, enumeration in (
        ("shapley_dp_vector", exact.shapley_enumerate),
        ("banzhaf_counts_dp_vector", exact.banzhaf_counts_enumerate),
    ):
        table_engine = getattr(exact, name)

        def engine(game, table_engine=table_engine, enumeration=enumeration):
            small = game.num_players <= exact.DEFAULT_ENUMERATION_LIMIT
            return (enumeration if small else table_engine)(game)

        mp.setattr(exact, name, engine)


def refuse_enumeration(mp) -> None:
    """Read every game whose table fits from its table, and make any
    enumeration fail the test, through ``mp``."""

    def refused(game):
        raise AssertionError(f"{game} was enumerated")

    mp.setattr(exact, "TABLE_BITS_PER_COALITION", exact.TABLE_BITS_LIMIT)
    mp.setattr(exact, "_enumerated_pivots", refused)
