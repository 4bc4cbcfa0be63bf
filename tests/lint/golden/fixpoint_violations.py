"""Golden fixture: a loop-carried flow longer than the RL6xx pass cap."""


def shift_register(seed, steps):  # expect: RL600
    # The seed moves one slot per iteration, and the interpreter follows
    # it one slot per pass: r11 is reached only on the twelfth pass.
    r11 = r10 = r9 = r8 = r7 = r6 = r5 = r4 = r3 = r2 = r1 = r0 = 0
    for _ in range(steps):
        r11 = r10
        r10 = r9
        r9 = r8
        r8 = r7
        r7 = r6
        r6 = r5
        r5 = r4
        r4 = r3
        r3 = r2
        r2 = r1
        r1 = r0
        r0 = seed
    return r11


def short_register(seed, steps):
    r1 = r0 = 0
    for _ in range(steps):
        r1 = r0
        r0 = seed
    return r1
