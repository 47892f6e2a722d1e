# mmio: polls the UART line-status register and writes its scratch
# register every iteration. Both accesses leave the RAM fast path and go
# through device dispatch; neither transmits, so the console stays small.
    li t1, 0x54000000
    li s0, 0
    li s1, ITERS
mmio_loop:
    lbu t2, 5(t1)
    add s11, s11, t2
    sb s0, 7(t1)
    addi s0, s0, 1
    blt s0, s1, mmio_loop
