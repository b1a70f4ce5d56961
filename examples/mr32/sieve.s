# sieve.s — sieve of Eratosthenes up to 10000 on the MR32 simulator.
#
#   go run ./cmd/mr32run -stats examples/mr32/sieve.s
#
# Prints the number of primes below 10000. The marking loops produce
# textbook stride patterns with many different strides — feed the
# trace to vpredict to watch the DFCM eat them:
#
#   go run ./cmd/mr32run -dump-trace /tmp/sieve.vtr examples/mr32/sieve.s
#   go run ./cmd/vpredict -trace /tmp/sieve.vtr -spec dfcm:16:12
	.data
flags:	.space 10000
msg:	.asciiz "primes below 10000: "
nl:	.asciiz "\n"

	.text
main:
	li   $s0, 10000           # limit
	li   $s1, 2               # candidate
outer:
	lbu  $t0, flags($s1)
	bnez $t0, next            # already marked composite
	# mark multiples 2p, 3p, ...
	addu $t1, $s1, $s1
mark:
	bge  $t1, $s0, next
	li   $t2, 1
	sb   $t2, flags($t1)
	addu $t1, $t1, $s1
	b    mark
next:
	addiu $s1, $s1, 1
	blt  $s1, $s0, outer

	# count unmarked entries >= 2
	li   $s2, 0               # count
	li   $s1, 2
count:
	lbu  $t0, flags($s1)
	bnez $t0, cnext
	addiu $s2, $s2, 1
cnext:
	addiu $s1, $s1, 1
	blt  $s1, $s0, count

	la   $a0, msg
	li   $v0, 4
	syscall
	move $a0, $s2
	li   $v0, 1
	syscall
	la   $a0, nl
	li   $v0, 4
	syscall
	li   $v0, 10
	syscall
