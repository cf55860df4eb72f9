"""Seeds with principal coefficients under mutation, in rank two."""

from clusterbrick import (cartan_of_type, c_vector, d_vector, f_polynomial,
                          format_fpoly, format_laurent, g_vector,
                          initial_seed, mutate)

cartan = cartan_of_type("A", 2)
seed = initial_seed(cartan, (1, 2))
print("alternating mutations at slots 1, 2, 1, 2, 1:")
for step, i in enumerate((0, 1, 2, 1, 2, 1)):
    if i:
        seed = mutate(seed, i)
        print(f"-- after mutating slot {i} --")
    else:
        print("-- initial seed --")
    print(f"  matrix rows: {seed.matrix}")
    print(f"  c-vectors:   {tuple(c_vector(seed, i) for i in (1, 2))}")
    for s, v in enumerate(seed.variables, start=1):
        print(f"  x[{s}] = {format_laurent(v, 2)}")
        print(f"         g = {g_vector(v, 2)}, d = {d_vector(v, 2)}, "
              f"F = {format_fpoly(f_polynomial(v, 2))}")
print()
print("five mutations close the pentagon up to swapping the two slots")
