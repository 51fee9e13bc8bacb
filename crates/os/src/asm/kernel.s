; =====================================================================
; mips-os guest kernel
;
; A complete software kernel for the simulated Stanford MIPS machine:
; exception dispatch, syscalls via trap, a preemptive round-robin
; scheduler driven by the external timer interrupt, and a demand-paging
; handler (FIFO fill + second-chance replacement) over the off-chip
; page-map unit. The paper's thesis is that exactly this software can
; carry what the hardware leaves out: there are no interlocks, no
; microcoded context switch, no hardware page tables — every delay
; slot, load shadow, and restartable fault below is scheduled by hand
; the same way the reorganizer schedules compiled code.
;
; The kernel runs unmapped (physical addresses) in supervisor mode with
; interrupts disabled — exception entry forces that state, `rfe`
; restores the interrupted process's own. Register conventions: all 16
; GPRs are saved to SAVE on entry, so every register is a kernel
; temporary.
;
; Hand-scheduling rules honoured throughout (checked by mips-verify):
;   - a loaded register is not read in the next instruction (1-slot
;     load shadow);
;   - every branch has its 1-slot delay shadow filled with a nop or a
;     both-paths-safe instruction;
;   - no `call`/`jmpi` — straight branches only, so the static CFG is
;     exact.
; =====================================================================

; ------------------------------ memory map ---------------------------
.equ SAVE      256       ; 0x100: 16-word register save area (r0..r15)
.equ CURRENT   288       ; 0x120: pid of the running process (0 = none)
.equ NPROCS    289       ; number of spawned processes (pids 1..NPROCS)
.equ KTICKS    290       ; counter: timer interrupts taken
.equ KFAULTS   291       ; counter: demand (hard) page faults
.equ KEVICTS   292       ; counter: frames evicted by the clock sweep
.equ KSOFT     293       ; counter: soft faults (re-reference remaps)
.equ KSYSCALLS 294       ; counter: traps serviced
.equ KSWITCHES 295       ; counter: process switch-ins
.equ CLOCK     296       ; monotonic tick clock (the `time` syscall)
.equ FHAND     297       ; second-chance clock hand (frame-table slot)
.equ FQLEN     298       ; frame slots filled so far (FIFO fill point)
.equ NFRAMES   299       ; frame budget, set by the host before boot
.equ KNETIRQ   300       ; counter: NIC delivery doorbells taken
.equ KSENDS    301       ; counter: frames committed by the send syscall
.equ KRECVS    302       ; counter: frames consumed by the recv syscall
.equ ITOA      320       ; 0x140: digit buffer for the putint syscall
.equ PCB       512       ; 0x200: process control blocks, 32 words/pid
.equ FRAMES    1024      ; 0x400: frame table, 2 words/slot [page, ref]

; PCB layout (offsets): +0 state (0 free / 1 runnable / 2 exited /
; 3 killed), +1 entry, +2..+4 saved ret0..ret2, +5 saved surprise,
; +6 exit status or killing surprise, +7 program break, +8..+23 r0..r15,
; +24 saved lo (the user-visible byte-insert selector).

; ---------------------------- device ports ---------------------------
.equ NIC       16777152  ; network interface: +0 status, +2 tx dst,
                         ; +3 tx commit, +4 rx len, +5 rx src, +6 rx ack,
                         ; +16 tx buffer, +32 rx buffer
.equ INTCTRL   16777200  ; interrupt controller (read: device+1, write: ack)
.equ MAPUNIT   16777208  ; +0 fault latch / page select, +1 map, +2 unmap
.equ CONSOLE   16777212  ; console: kernel writes (pid<<8)|byte

; =====================================================================
; Exception entry — the hardware vectors every surprise to address 0.
; Full register-file save into SAVE; the cause field decides the rest.
; =====================================================================
dispatch:
    st r0,@SAVE
    st r1,@SAVE+1
    st r2,@SAVE+2
    st r3,@SAVE+3
    st r4,@SAVE+4
    st r5,@SAVE+5
    st r6,@SAVE+6
    st r7,@SAVE+7
    st r8,@SAVE+8
    st r9,@SAVE+9
    st r10,@SAVE+10
    st r11,@SAVE+11
    st r12,@SAVE+12
    st r13,@SAVE+13
    st r14,@SAVE+14
    st r15,@SAVE+15

; Decode the surprise register's cause field (bits 8..11).
decode:
    rsp surprise,r1
    srl r1,#8,r2
    and r2,#15,r2
    beq r2,#4,svc        ; trap: a system call
    nop
    beq r2,#1,tick       ; external interrupt: the timer
    nop
    beq r2,#3,fault      ; page fault: demand paging or a wild pointer
    nop
    beq r2,#0,boot       ; reset: first entry after power-on
    nop
    bra kill             ; overflow/privilege/illegal/address: fatal
    nop

; =====================================================================
; System calls. The trap code sits in the surprise detail field
; (bits 12..27); the argument and return value travel in the caller's
; r1 (= SAVE+1).  0 exit  1 putchar  2 putint  3 yield  4 brk
; 5 getpid  6 time  7 send  8 recv  9 poll  10 sendf  11 recvf
; The network calls take a second argument / return a second value in
; the caller's r2 (= SAVE+2). The frame calls (sendf/recvf) move a
; whole four-word frame through the caller's r2, r8, r9, r10 — slots
; chosen to stay clear of the registers protocol guests keep state in.
; =====================================================================
svc:
    ld @KSYSCALLS,r3
    srl r1,#12,r1        ; r1 still holds the raw surprise: trap code
    add r3,#1,r3
    st r3,@KSYSCALLS
    beq r1,#0,svc_exit
    nop
    beq r1,#1,svc_putc
    nop
    beq r1,#2,svc_putint
    nop
    beq r1,#3,svc_yield
    nop
    beq r1,#4,svc_brk
    nop
    beq r1,#5,svc_getpid
    nop
    beq r1,#6,svc_time
    nop
    beq r1,#7,svc_send
    nop
    beq r1,#8,svc_recv
    nop
    beq r1,#9,svc_poll
    nop
    beq r1,#10,svc_sendf
    nop
    beq r1,#11,svc_recvf
    nop
    bra resume           ; unknown service: ignored
    nop

svc_exit:
    ld @CURRENT,r1
    lim #PCB,r2
    sll r1,#5,r3
    add r3,r2,r2         ; current process's PCB
    ld @SAVE+1,r4        ; exit status from the caller's r1
    mvi #2,r3
    st r3,0(r2)          ; state := exited
    st r4,6(r2)
    bra sched
    nop

svc_putc:
    ld @SAVE+1,r4        ; character argument
    ld @CURRENT,r5
    lim #255,r6
    and r4,r6,r4
    sll r5,#8,r5         ; console words carry the writer's pid
    or r4,r5,r4
    lim #CONSOLE,r6
    st r4,0(r6)
    bra resume
    nop

svc_putint:
    ld @SAVE+1,r4        ; signed value to print in decimal
    ld @CURRENT,r5
    lim #CONSOLE,r6
    sll r5,#8,r5
    lim #ITOA,r7
    mvi #0,r8            ; digit count
    mvi #48,r10          ; '0'
    bge r4,#0,pi_norm
    nop
    mvi #45,r9           ; '-': value already in the negative domain
    or r9,r5,r9
    st r9,0(r6)
    bra pi_digits
    nop
pi_norm:
    rsub r4,#0,r4        ; negate: negative-domain digits are MIN-safe
pi_digits:
    rem r4,#10,r9        ; remainder in (-9..0]
    rsub r9,r10,r9       ; '0' - remainder
    st r9,(r7,r8)
    add r8,#1,r8
    div r4,#10,r4
    bne r4,#0,pi_digits
    nop
pi_emit:
    sub r8,#1,r8         ; emit most-significant first
    ld (r7,r8),r9
    nop
    or r9,r5,r9
    st r9,0(r6)
    bne r8,#0,pi_emit
    nop
    bra resume
    nop

svc_yield:
    bra preempt          ; voluntary: same path as a timer preemption
    nop

svc_brk:
    ld @CURRENT,r1
    lim #PCB,r2
    sll r1,#5,r3
    add r3,r2,r2
    ld @SAVE+1,r4        ; requested break
    ld 7(r2),r5          ; previous break
    st r4,7(r2)
    st r5,@SAVE+1        ; old break returned in r1
    bra resume
    nop

svc_getpid:
    ld @CURRENT,r4
    nop
    st r4,@SAVE+1
    bra resume
    nop

svc_time:
    ld @CLOCK,r4
    nop
    st r4,@SAVE+1
    bra resume
    nop

; --------------------------- network calls ---------------------------
; 7 send(dst, word): destination node in the caller's r1, payload word
; in the caller's r2. Returns 0 in r1 on success; all-ones when the TX
; ring is full (the caller backs off and retries — the NIC never drops
; a committed frame, so a refused commit is the only loss the guest
; ever sees locally).
svc_send:
    lim #NIC,r2
    ld 0(r2),r3          ; NIC status
    ld @SAVE+1,r4        ; destination argument
    and r3,#2,r3         ; TX_READY
    beq r3,#0,snd_full
    nop
    ld @SAVE+2,r5        ; payload word argument
    st r4,2(r2)          ; latch the destination
    st r5,16(r2)         ; stage the word
    mvi #1,r6
    st r6,3(r2)          ; commit a one-word frame
    ld @KSENDS,r7
    mvi #0,r6
    add r7,#1,r7
    st r7,@KSENDS
    st r6,@SAVE+1        ; return 0
    bra resume
    nop
snd_full:
    mvi #0,r6
    sub r6,#1,r6         ; all-ones: ring full, try again
    st r6,@SAVE+1
    bra resume
    nop

; 8 recv(): pops the head frame. Returns the payload word in r1 and
; the source node in r2; an empty ring returns r2 = all-ones, r1 = 0.
svc_recv:
    lim #NIC,r2
    ld 4(r2),r3          ; head frame's payload length
    nop
    beq r3,#0,rcv_none
    nop
    ld 5(r2),r4          ; source node
    ld 32(r2),r5         ; payload word
    st r4,@SAVE+2
    st r5,@SAVE+1
    mvi #0,r6
    st r6,6(r2)          ; acknowledge: pop the frame
    ld @KRECVS,r7
    nop
    add r7,#1,r7
    st r7,@KRECVS
    bra resume
    nop
rcv_none:
    mvi #0,r4
    sub r4,#1,r4
    st r4,@SAVE+2        ; source := all-ones (nothing waiting)
    mvi #0,r5
    st r5,@SAVE+1
    bra resume
    nop

; 9 poll(): returns the raw NIC status word in r1 (bit 0: a frame is
; waiting, bit 1: the TX ring has space).
svc_poll:
    lim #NIC,r2
    ld 0(r2),r3
    nop
    st r3,@SAVE+1
    bra resume
    nop

; 10 sendf(dst, w0..w3): commits a whole four-word frame — the Frame2
; wire format. Destination in the caller's r1, payload words in the
; caller's r2, r8, r9, r10. Returns 0 in r1 on success; all-ones when
; the TX ring is full (same back-off contract as send).
svc_sendf:
    lim #NIC,r2
    ld 0(r2),r3          ; NIC status
    ld @SAVE+1,r4        ; destination argument
    and r3,#2,r3         ; TX_READY
    beq r3,#0,snd_full
    nop
    st r4,2(r2)          ; latch the destination
    ld @SAVE+2,r5        ; w0
    ld @SAVE+8,r6        ; w1
    st r5,16(r2)
    ld @SAVE+9,r5        ; w2
    st r6,17(r2)
    ld @SAVE+10,r6       ; w3
    st r5,18(r2)
    st r6,19(r2)
    mvi #4,r6
    st r6,3(r2)          ; commit a four-word frame
    ld @KSENDS,r7
    mvi #0,r6
    add r7,#1,r7
    st r7,@KSENDS
    st r6,@SAVE+1        ; return 0
    bra resume
    nop

; 11 recvf(): pops the head frame as four words. Returns the source
; node in r1 (all-ones when nothing is waiting) and the payload words
; in the caller's r2, r8, r9, r10; words past a short frame's payload
; read as zero.
svc_recvf:
    lim #NIC,r2
    ld 4(r2),r3          ; head frame's payload length
    nop
    beq r3,#0,rcvf_none
    nop
    ld 5(r2),r4          ; source node
    ld 32(r2),r5         ; w0
    st r4,@SAVE+1
    ld 33(r2),r4         ; w1
    st r5,@SAVE+2
    ld 34(r2),r5         ; w2
    st r4,@SAVE+8
    ld 35(r2),r4         ; w3
    st r5,@SAVE+9
    st r4,@SAVE+10
    mvi #0,r6
    st r6,6(r2)          ; acknowledge: pop the frame
    ld @KRECVS,r7
    nop
    add r7,#1,r7
    st r7,@KRECVS
    bra resume
    nop
rcvf_none:
    mvi #0,r4
    sub r4,#1,r4
    st r4,@SAVE+1        ; source := all-ones (nothing waiting)
    mvi #0,r5
    st r5,@SAVE+2
    st r5,@SAVE+8
    st r5,@SAVE+9
    st r5,@SAVE+10
    bra resume
    nop

; =====================================================================
; External interrupt: acknowledge the controller and decide by device.
; Device 0 is the timer — advance the clock and preempt (round-robin
; time slicing). Any other device is the NIC's delivery doorbell —
; count it and resume the interrupted process without costing it the
; slice; the frames themselves drain through the recv syscall.
; =====================================================================
tick:
    lim #INTCTRL,r1
    ld 0(r1),r2          ; highest pending device + 1
    nop
    sub r2,#1,r2
    st r2,0(r1)          ; acknowledge it
    bne r2,#0,netirq     ; not the timer: the NIC doorbell
    nop
    ld @KTICKS,r4
    ld @CLOCK,r5
    add r4,#1,r4
    st r4,@KTICKS
    add r5,#1,r5
    st r5,@CLOCK
    bra preempt
    nop

netirq:
    ld @KNETIRQ,r4
    nop
    add r4,#1,r4
    st r4,@KNETIRQ
    bra resume
    nop

; =====================================================================
; Page fault. The map unit latches the faulting address: a value that
; fits 24 bits is a mapped (pid-inserted) address — demand paging; a
; raw 32-bit value came from the segmentation gap — a wild pointer,
; fatal. Frames are identity pairs (frame number = page number): the
; frame table below decides only *which* pages stay mapped. Fill is
; FIFO while free slots remain, then a second-chance clock: a swept
; page is unmapped but remembered, so a re-touch is a cheap soft fault
; that revalidates it; only a page that stayed untouched a full sweep
; gets evicted.
; =====================================================================
fault:
    lim #MAPUNIT,r1
    ld 0(r1),r2          ; latched faulting address
    lim #FRAMES,r4
    srl r2,#12,r2        ; page number (4K-word pages)
    lim #4096,r3
    bgeu r2,r3,kill      ; >= 2^24: raw va from the segmentation gap
    nop
    ld @FQLEN,r5
    mvi #0,r6            ; scan index
    mov r4,r7            ; scan cursor
fscan:                   ; is this a swept-but-resident page?
    beq r6,r5,fmiss
    nop
    ld 0(r7),r8
    add r6,#1,r6
    beq r8,r2,fhit
    nop
    add r7,#2,r7
    bra fscan
    nop
fhit:                    ; soft fault: remap and mark referenced
    mvi #1,r8
    st r8,1(r7)
    st r2,0(r1)          ; select the page ...
    st r2,1(r1)          ; ... and map it back in (frame = page)
    ld @KSOFT,r8
    nop
    add r8,#1,r8
    st r8,@KSOFT
    bra resume
    nop
fmiss:
    ld @KFAULTS,r8
    ld @NFRAMES,r9
    add r8,#1,r8
    st r8,@KFAULTS
    bltu r5,r9,ftake     ; a frame slot is still free: FIFO fill
    nop
fclock:                  ; all frames in use: second-chance sweep
    ld @FHAND,r6
    nop
    sll r6,#1,r7
    add r7,r4,r7         ; the hand's frame-table entry
    ld 1(r7),r8          ; referenced since the last sweep?
    ld 0(r7),r10
    beq r8,#0,fevict
    nop
    mvi #0,r8            ; second chance: clear ref, unmap, move on
    st r8,1(r7)
    st r10,2(r1)         ; unmapped: a re-touch will soft-fault
    add r6,#1,r6
    bltu r6,r9,fwrap
    nop
    mvi #0,r6
fwrap:
    st r6,@FHAND
    bra fclock
    nop
fevict:                  ; the victim went a full sweep untouched
    ld @KEVICTS,r8
    add r6,#1,r6         ; hand moves past the victim
    bltu r6,r9,fev2
    add r8,#1,r8         ; delay slot: count the eviction either way
    mvi #0,r6
fev2:
    st r8,@KEVICTS
    st r6,@FHAND
    st r2,0(r7)          ; the slot now holds the faulting page
    mvi #1,r8
    st r8,1(r7)
    st r2,0(r1)
    st r2,1(r1)          ; map it in
    bra resume
    nop
ftake:
    sll r5,#1,r7
    add r7,r4,r7
    st r2,0(r7)
    mvi #1,r8
    st r8,1(r7)
    add r5,#1,r5
    st r5,@FQLEN
    st r2,0(r1)
    st r2,1(r1)
    bra resume
    nop

; =====================================================================
; Fatal exception in user mode: mark the process killed, record the
; raw surprise so the host can report the cause, schedule someone else.
; =====================================================================
kill:
    ld @CURRENT,r1
    lim #PCB,r2
    sll r1,#5,r3
    add r3,r2,r2
    mvi #3,r3
    st r3,0(r2)          ; state := killed
    rsp surprise,r4
    st r4,6(r2)
    bra sched
    nop

; =====================================================================
; Preemption (timer tick or yield): copy the interrupted context —
; return-address chain, surprise, lo, and all 16 registers — from the
; save area into the PCB, then pick the next process. `lo` is user
; state: a preemption can land between a `wsp …,lo` and the byte
; insert it selects for.
; =====================================================================
preempt:
    ld @CURRENT,r1
    lim #PCB,r2
    sll r1,#5,r3
    add r3,r2,r2         ; current process's PCB
    rsp ret0,r3
    st r3,2(r2)
    rsp ret1,r3
    st r3,3(r2)
    rsp ret2,r3
    st r3,4(r2)
    rsp surprise,r3
    st r3,5(r2)
    rsp lo,r3
    st r3,24(r2)
    ld @SAVE,r3
    ld @SAVE+1,r4
    st r3,8(r2)
    st r4,9(r2)
    ld @SAVE+2,r3
    ld @SAVE+3,r4
    st r3,10(r2)
    st r4,11(r2)
    ld @SAVE+4,r3
    ld @SAVE+5,r4
    st r3,12(r2)
    st r4,13(r2)
    ld @SAVE+6,r3
    ld @SAVE+7,r4
    st r3,14(r2)
    st r4,15(r2)
    ld @SAVE+8,r3
    ld @SAVE+9,r4
    st r3,16(r2)
    st r4,17(r2)
    ld @SAVE+10,r3
    ld @SAVE+11,r4
    st r3,18(r2)
    st r4,19(r2)
    ld @SAVE+12,r3
    ld @SAVE+13,r4
    st r3,20(r2)
    st r4,21(r2)
    ld @SAVE+14,r3
    ld @SAVE+15,r4
    st r3,22(r2)
    st r4,23(r2)
    bra sched
    nop

; =====================================================================
; Round-robin scheduler: scan pids after the current one (wrapping),
; take the first runnable. Nothing runnable means the workload set is
; drained — halt the machine.
; =====================================================================
sched:
    ld @NPROCS,r1
    ld @CURRENT,r2
    mvi #0,r7            ; candidates examined
    lim #PCB,r5
sched_loop:
    add r2,#1,r2         ; round robin: start after the current pid
    ble r2,r1,sl_ok
    nop
    mvi #1,r2            ; wrap to pid 1
sl_ok:
    sll r2,#5,r3
    add r3,r5,r3         ; candidate's PCB
    ld 0(r3),r4
    add r7,#1,r7
    beq r4,#1,found      ; runnable
    nop
    blt r7,r1,sched_loop
    nop
    halt                 ; no runnable process: the system is idle

; Switch in: r2 = pid, r3 = its PCB. Restore the return-address chain,
; surprise, and lo, point the segmentation unit at the new address
; space, and stage the registers into SAVE for the restore path.
found:
    ld @KSWITCHES,r4
    st r2,@CURRENT
    add r4,#1,r4
    st r4,@KSWITCHES
    wsp r2,pid           ; on-chip segmentation inserts this id
    ld 2(r3),r4
    ld 3(r3),r5
    wsp r4,ret0
    wsp r5,ret1
    ld 4(r3),r4
    ld 5(r3),r5
    wsp r4,ret2
    wsp r5,surprise      ; prev fields hold the user-mode configuration
    ld 24(r3),r6
    ld 8(r3),r4
    wsp r6,lo            ; the process's byte-insert selector
    ld 9(r3),r5
    st r4,@SAVE
    st r5,@SAVE+1
    ld 10(r3),r4
    ld 11(r3),r5
    st r4,@SAVE+2
    st r5,@SAVE+3
    ld 12(r3),r4
    ld 13(r3),r5
    st r4,@SAVE+4
    st r5,@SAVE+5
    ld 14(r3),r4
    ld 15(r3),r5
    st r4,@SAVE+6
    st r5,@SAVE+7
    ld 16(r3),r4
    ld 17(r3),r5
    st r4,@SAVE+8
    st r5,@SAVE+9
    ld 18(r3),r4
    ld 19(r3),r5
    st r4,@SAVE+10
    st r5,@SAVE+11
    ld 20(r3),r4
    ld 21(r3),r5
    st r4,@SAVE+12
    st r5,@SAVE+13
    ld 22(r3),r4
    ld 23(r3),r5
    st r4,@SAVE+14
    st r5,@SAVE+15
    bra resume
    nop

; Reset: the host has seeded the PCBs and globals; just schedule.
boot:
    bra sched
    nop

; =====================================================================
; Return to user mode: reload all 16 registers and `rfe`. The final
; load is still in its shadow when `rfe` issues — legal, because `rfe`
; reads no general register and the load commits before the first
; user-mode instruction.
; =====================================================================
resume:
    ld @SAVE,r0
    ld @SAVE+1,r1
    ld @SAVE+2,r2
    ld @SAVE+3,r3
    ld @SAVE+4,r4
    ld @SAVE+5,r5
    ld @SAVE+6,r6
    ld @SAVE+7,r7
    ld @SAVE+8,r8
    ld @SAVE+9,r9
    ld @SAVE+10,r10
    ld @SAVE+11,r11
    ld @SAVE+12,r12
    ld @SAVE+13,r13
    ld @SAVE+14,r14
    ld @SAVE+15,r15
    rfe
