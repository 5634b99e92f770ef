import numpy as np
import pytest

from hdgstokes import assembly, condense, mesh, spaces


def constant_facet_velocity_fields(sp_):
    """(n_ubar, 2) representations of the two constant trace fields,
    (1, 0) and (0, 1); both velocity forms vanish on them, paired with
    the matching constant cell velocity."""
    return np.column_stack([
        spaces.project_facet_velocity(sp_, lambda x, y: (np.ones_like(x),
                                                         np.zeros_like(x))),
        spaces.project_facet_velocity(sp_, lambda x, y: (np.zeros_like(x),
                                                         np.ones_like(x)))])


def dg_penalty(sp_, alpha):
    """(nc, nb, nb) sum over sides of alpha/h <phi, phi>, summed here
    from the `Side` kernels, apart from `assembly.local_velocity_form`,
    for the dense oracles."""
    ch = sp_.chunk()
    out = sum(assembly.Side(ch, e, alpha).penalty()
              for e in range(sp_.nsides))
    return 0.5 * (out + out.transpose(0, 2, 1))


@pytest.fixture(scope="session")
def tri2():
    """Two right triangles tiling [-1,1]^2."""
    return mesh.generate(1, 1)


@pytest.fixture(scope="session")
def tri4x4():
    return mesh.generate(4, 4)


@pytest.fixture(scope="session")
def tri_jitter():
    return mesh.generate(3, 3, jitter=0.15, seed=7)


@pytest.fixture(scope="session")
def quad2x2():
    return mesh.generate(2, 2, "quadrilateral")


@pytest.fixture(scope="session")
def quad_jitter():
    return mesh.generate(3, 2, "quadrilateral", jitter=0.1, seed=4)


@pytest.fixture(scope="session")
def cavity():
    return spaces.lid_driven_cavity(degree=2, alpha=24.0)


@pytest.fixture(scope="session")
def sys2(tri2, cavity):
    """Spaces, blocks and condensed system on the two-cell mesh."""
    sp_ = spaces.build_spaces(tri2, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    return sp_, bs, condense.condense(bs)


@pytest.fixture(scope="session")
def sys4x4(tri4x4, cavity):
    sp_ = spaces.build_spaces(tri4x4, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    return sp_, bs, condense.condense(bs)


@pytest.fixture(scope="session")
def sys_jitter(tri_jitter, cavity):
    sp_ = spaces.build_spaces(tri_jitter, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    return sp_, bs, condense.condense(bs)
