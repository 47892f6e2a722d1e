# call_heavy: every iteration makes an indirect call through a four-entry
# function-pointer table (jalr), and two of the four callees make a nested
# direct call (jal) and return (jalr). Indirect branches end superblocks, so
# this shape keeps the trace tier dispatching short traces.
    la s2, ch_table
    li s0, 0
    li s1, ITERS
ch_loop:
    andi t0, s0, 3
    slli t0, t0, 3
    add t0, s2, t0
    ld t1, 0(t0)
    jalr ra, 0(t1)
    addi s0, s0, 1
    blt s0, s1, ch_loop
    j ch_done
ch_f0:
    addi s11, s11, 1
    ret
ch_f1:
    mv s3, ra
    call ch_leaf
    mv ra, s3
    ret
ch_f2:
    xor s11, s11, s0
    ret
ch_f3:
    mv s3, ra
    call ch_leaf
    addi s11, s11, 3
    mv ra, s3
    ret
ch_leaf:
    add s11, s11, s0
    ret
ch_done:
.data
    .align 3
ch_table:
    .dword ch_f0
    .dword ch_f1
    .dword ch_f2
    .dword ch_f3
.text
