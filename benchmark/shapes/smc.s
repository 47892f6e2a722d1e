# smc: a hot loop that rewrites one of its own instructions every 64
# iterations, toggling `addi s11, s11, 1` (0x001d8d93) and
# `addi s11, s11, 2` (0x002d8d93). Each store lands inside the decoded-code
# guard, so the simulator must drop the predecoded word and every trace
# covering it, then re-decode and re-compile.
    la t1, smc_site
    li t3, 0x001d8d93
    li t4, 0x00300000
    li s0, 0
    li s1, ITERS
smc_loop:
smc_site:
    addi s11, s11, 1
    addi s0, s0, 1
    andi t0, s0, 63
    bnez t0, smc_next
    xor t3, t3, t4
    sw t3, 0(t1)
smc_next:
    blt s0, s1, smc_loop
