from hypothesis import given
from hypothesis import strategies as st

from pcbls import corruption
from pcbls.seeding import derive_seed, fold_seed

parts = st.lists(st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6)), max_size=4)


@given(base=st.integers(-(2**70), 2**70), head=parts, tail=parts)
def test_fold_seed_continues_derive_seed(base, head, tail):
    assert fold_seed(derive_seed(base, *head), *tail) == derive_seed(base, *head, *tail)


def test_seeds_keep_their_values():
    assert derive_seed(0) == 16294208416658607535
    assert derive_seed(2**70, "data") == 4230525844350854688
    assert derive_seed(7, "corrupt", 3, 2, 11) == 13136312215485810894
    # the seed of corrupt_dataset's fog severity-2 file of image 11 at base seed 7
    assert fold_seed(corruption._kind_seed(7, "fog", 2), 11) == 2174751147468682473
