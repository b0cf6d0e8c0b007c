//// app MD
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L15: parallel loop at line 15
 * array configuration information:
 *   pos          replica-based placement, read, indirect reads
 *   force        distribution-based placement (localaccess), written (miss check elided: statically in range)
 *   nbr          distribution-based placement (localaccess), read, 2-D layout transform for coalescing
 * coalescing efficiency: 0.70 (baseline 0.39)
 */
__global__ void main_L15(float *pos, float *force, int *nbr, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    int j;
    int jn;
    float ipx;
    float ipy;
    float ipz;
    float fx;
    float fy;
    float fz;
    ipx = ACC_LOAD(pos, (4 * i));
    ipy = ACC_LOAD(pos, ((4 * i) + 1));
    ipz = ACC_LOAD(pos, ((4 * i) + 2));
    fx = 0.0;
    fy = 0.0;
    fz = 0.0;
    for (j = 0; (j < maxn); j += 1) {
        jn = ACC_LOAD(nbr, ((i * maxn) + j));
        if ((jn >= 0)) {
            float dx;
            float dy;
            float dz;
            float r2;
            float ir2;
            float r6;
            float fr;
            dx = (ipx - ACC_LOAD(pos, (4 * jn)));
            dy = (ipy - ACC_LOAD(pos, ((4 * jn) + 1)));
            dz = (ipz - ACC_LOAD(pos, ((4 * jn) + 2)));
            r2 = (((dx * dx) + (dy * dy)) + (dz * dz));
            if ((r2 < cutsq)) {
                ir2 = (1.0 / r2);
                r6 = ((ir2 * ir2) * ir2);
                fr = ((r6 * ((lj1 * r6) - lj2)) * ir2);
                fx += (dx * fr);
                fy += (dy * fr);
                fz += (dz * fr);
            }
        }
    }
    ACC_STORE(force, (4 * i), fx);
    ACC_STORE(force, ((4 * i) + 1), fy);
    ACC_STORE(force, ((4 * i) + 2), fz);
    ACC_STORE(force, ((4 * i) + 3), 0.0);
}

void main(void) {
    int i;
    acc_data_enter(); /* acc data copyin(pos, nbr) copyout(force) */
        acc_load(pos, force, nbr); /* data loader: replica/distribution policies */
        for (int __g = 0; __g < acc_num_gpus(); __g++)
            main_L15<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(pos, force, nbr, acc_layout(__g), acc_lo(__g), acc_hi(__g));
        acc_comm_sync(); /* inter-GPU communication manager */
    acc_data_exit();
}
//// app KMEANS
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L19: parallel loop at line 19
 * array configuration information:
 *   feat         distribution-based placement (localaccess), read, 2-D layout transform for coalescing
 *   clusters     replica-based placement, read
 *   newc         reductiontoarray(+), hierarchical lanes
 *   count        reductiontoarray(+), hierarchical lanes
 *   member       distribution-based placement (localaccess), read, written (miss check elided: statically in range)
 * scalar reductions: +:delta
 * coalescing efficiency: 0.90 (baseline 0.50)
 */
__global__ void main_L19(float *feat, float *clusters, float *newc, int *count, int *member, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    int f;
    int best;
    int c;
    float bestd;
    bestd = 1e+30;
    best = 0;
    for (c = 0; (c < k); c += 1) {
        float d;
        float diff;
        d = 0.0;
        for (f = 0; (f < nf); f += 1) {
            diff = (ACC_LOAD(feat, ((i * nf) + f)) - ACC_LOAD(clusters, ((c * nf) + f)));
            d += (diff * diff);
        }
        if ((d < bestd)) {
            bestd = d;
            best = c;
        }
    }
    if ((ACC_LOAD(member, i) != best)) {
        delta += 1.0;
    }
    ACC_STORE(member, i, best);
    for (f = 0; (f < nf); f += 1) {
        ACC_REDUCE(newc, ((best * nf) + f), +, ACC_LOAD(feat, ((i * nf) + f)));
    }
    ACC_REDUCE(count, best, +, 1);
}

/* kernel main_L48: parallel loop at line 48
 * array configuration information:
 *   clusters     replica-based placement, written (two-level dirty bits)
 *   newc         replica-based placement, read, written (two-level dirty bits)
 *   count        replica-based placement, read
 * coalescing efficiency: 1.00 (baseline 1.00)
 */
__global__ void main_L48(float *clusters, float *newc, int *count, acc_layout_t __layout, long __lo, long __hi) {
    long j = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (j >= __hi) return;
    if ((ACC_LOAD(count, (j / nf)) > 0)) {
        ACC_STORE(clusters, j, (ACC_LOAD(newc, j) / (float)(ACC_LOAD(count, (j / nf))))); /* + dirty bits */
    }
    ACC_STORE(newc, j, 0.0); /* + dirty bits */
}

void main(void) {
    int it;
    int i;
    int j;
    acc_data_enter(); /* acc data copyin(feat) copy(clusters, member) create(newc, count) */
        for (it = 0; (it < iters); it += 1) {
            delta = 0.0;
            acc_load(feat, clusters, newc, count, member); /* data loader: replica/distribution policies */
            for (int __g = 0; __g < acc_num_gpus(); __g++)
                main_L19<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(feat, clusters, newc, count, member, acc_layout(__g), acc_lo(__g), acc_hi(__g));
            acc_comm_sync(); /* inter-GPU communication manager */
            acc_load(clusters, newc, count); /* data loader: replica/distribution policies */
            for (int __g = 0; __g < acc_num_gpus(); __g++)
                main_L48<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(clusters, newc, count, acc_layout(__g), acc_lo(__g), acc_hi(__g));
            acc_comm_sync(); /* inter-GPU communication manager */
            for (j = 0; (j < k); j += 1) {
                count[j] = 0;
            }
            acc_update(); /* acc update device(count) */
        }
    acc_data_exit();
}
//// app BFS
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L18: parallel loop at line 18
 * array configuration information:
 *   off          distribution-based placement (localaccess), read
 *   edges        distribution-based placement (localaccess), read, indirect reads
 *   cost         replica-based placement, read, written (two-level dirty bits), indirect reads
 * scalar reductions: |:changed
 * coalescing efficiency: 0.49 (baseline 0.49)
 */
__global__ void main_L18(int *off, int *edges, int *cost, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    int e;
    int w;
    if ((ACC_LOAD(cost, i) == level)) {
        for (e = ACC_LOAD(off, i); (e < ACC_LOAD(off, (i + 1))); e += 1) {
            w = ACC_LOAD(edges, e);
            if ((ACC_LOAD(cost, w) < 0)) {
                ACC_STORE(cost, w, (level + 1)); /* + dirty bits */
                changed = 1;
            }
        }
    }
}

void main(void) {
    int i;
    acc_data_enter(); /* acc data copyin(off, edges) copy(cost) */
        changed = 1;
        level = 0;
        while (changed) {
            changed = 0;
            acc_load(off, edges, cost); /* data loader: replica/distribution policies */
            for (int __g = 0; __g < acc_num_gpus(); __g++)
                main_L18<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(off, edges, cost, acc_layout(__g), acc_lo(__g), acc_hi(__g));
            acc_comm_sync(); /* inter-GPU communication manager */
            level += 1;
        }
    acc_data_exit();
}
//// app SPMV
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L19: parallel loop at line 19
 * array configuration information:
 *   rowptr       distribution-based placement (localaccess), read
 *   cols         distribution-based placement (localaccess), read, indirect reads
 *   vals         distribution-based placement (localaccess), read, indirect reads
 *   x            replica-based placement, read, indirect reads
 *   y            distribution-based placement (localaccess), written (miss check elided: statically in range)
 * coalescing efficiency: 0.34 (baseline 0.34)
 */
__global__ void main_L19(int *rowptr, int *cols, float *vals, float *x, float *y, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    int e;
    float acc;
    acc = 0.0;
    for (e = ACC_LOAD(rowptr, i); (e < ACC_LOAD(rowptr, (i + 1))); e += 1) {
        acc += (ACC_LOAD(vals, e) * ACC_LOAD(x, ACC_LOAD(cols, e)));
    }
    ACC_STORE(y, i, acc);
}

void main(void) {
    int it;
    int i;
    acc_data_enter(); /* acc data copyin(rowptr, cols, vals, x) copyout(y) */
        for (it = 0; (it < iters); it += 1) {
            acc_load(rowptr, cols, vals, x, y); /* data loader: replica/distribution policies */
            for (int __g = 0; __g < acc_num_gpus(); __g++)
                main_L19<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(rowptr, cols, vals, x, y, acc_layout(__g), acc_lo(__g), acc_hi(__g));
            acc_comm_sync(); /* inter-GPU communication manager */
        }
    acc_data_exit();
}
//// app HOTSPOT2D
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L16: parallel loop at line 16
 * array configuration information:
 *   temp         distribution-based placement (localaccess), read
 *   tnew         distribution-based placement (localaccess), written (write-miss check + system buffer)
 *   power        distribution-based placement (localaccess), read, 2-D layout transform for coalescing
 * coalescing efficiency: 0.55 (baseline 0.30)
 */
__global__ void main_L16(float *temp, float *tnew, float *power, acc_layout_t __layout, long __lo, long __hi) {
    long r = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (r >= __hi) return;
    for (c = 0; (c < w); c += 1) {
        float up;
        float down;
        float left;
        float right;
        float center;
        p = ((r * w) + c);
        center = ACC_LOAD(temp, p);
        up = center;
        down = center;
        left = center;
        right = center;
        if ((r > 0)) {
            up = ACC_LOAD(temp, (p - w));
        }
        if ((r < (h - 1))) {
            down = ACC_LOAD(temp, (p + w));
        }
        if ((c > 0)) {
            left = ACC_LOAD(temp, (p - 1));
        }
        if ((c < (w - 1))) {
            right = ACC_LOAD(temp, (p + 1));
        }
        ACC_STORE(tnew, p, ((center + (0.1 * ((((up + down) + left) + right) - (4.0 * center)))) + (0.05 * ACC_LOAD(power, p)))); /* + miss check */
    }
}

/* kernel main_L37: parallel loop at line 37
 * array configuration information:
 *   temp         distribution-based placement (localaccess), written (write-miss check + system buffer)
 *   tnew         distribution-based placement (localaccess), read
 * coalescing efficiency: 0.55 (baseline 0.55)
 */
__global__ void main_L37(float *temp, float *tnew, acc_layout_t __layout, long __lo, long __hi) {
    long r = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (r >= __hi) return;
    for (c = 0; (c < w); c += 1) {
        ACC_STORE(temp, ((r * w) + c), ACC_LOAD(tnew, ((r * w) + c))); /* + miss check */
    }
}

void main(void) {
    int t;
    int r;
    int c;
    int p;
    acc_data_enter(); /* acc data copy(temp) copyin(power) create(tnew) */
        for (t = 0; (t < steps); t += 1) {
            acc_load(temp, tnew, power); /* data loader: replica/distribution policies */
            for (int __g = 0; __g < acc_num_gpus(); __g++)
                main_L16<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(temp, tnew, power, acc_layout(__g), acc_lo(__g), acc_hi(__g));
            acc_comm_sync(); /* inter-GPU communication manager */
            acc_load(temp, tnew); /* data loader: replica/distribution policies */
            for (int __g = 0; __g < acc_num_gpus(); __g++)
                main_L37<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(temp, tnew, acc_layout(__g), acc_lo(__g), acc_hi(__g));
            acc_comm_sync(); /* inter-GPU communication manager */
        }
    acc_data_exit();
}
//// app NBODY
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L13: parallel loop at line 13
 * array configuration information:
 *   pos          replica-based placement, read
 *   acc          distribution-based placement (localaccess), written (miss check elided: statically in range)
 * coalescing efficiency: 1.00 (baseline 1.00)
 */
__global__ void main_L13(float *pos, float *acc, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    int j;
    float px;
    float py;
    float pz;
    float ax;
    float ay;
    float az;
    px = ACC_LOAD(pos, (4 * i));
    py = ACC_LOAD(pos, ((4 * i) + 1));
    pz = ACC_LOAD(pos, ((4 * i) + 2));
    ax = 0.0;
    ay = 0.0;
    az = 0.0;
    for (j = 0; (j < n); j += 1) {
        float dx;
        float dy;
        float dz;
        float r2;
        float inv;
        float inv3;
        float m;
        dx = (ACC_LOAD(pos, (4 * j)) - px);
        dy = (ACC_LOAD(pos, ((4 * j) + 1)) - py);
        dz = (ACC_LOAD(pos, ((4 * j) + 2)) - pz);
        m = ACC_LOAD(pos, ((4 * j) + 3));
        r2 = ((((dx * dx) + (dy * dy)) + (dz * dz)) + soft);
        inv = (1.0 / sqrt(r2));
        inv3 = ((inv * inv) * inv);
        ax += ((m * dx) * inv3);
        ay += ((m * dy) * inv3);
        az += ((m * dz) * inv3);
    }
    ACC_STORE(acc, (4 * i), ax);
    ACC_STORE(acc, ((4 * i) + 1), ay);
    ACC_STORE(acc, ((4 * i) + 2), az);
    ACC_STORE(acc, ((4 * i) + 3), 0.0);
}

void main(void) {
    int i;
    acc_data_enter(); /* acc data copyin(pos) copyout(acc) */
        acc_load(pos, acc); /* data loader: replica/distribution policies */
        for (int __g = 0; __g < acc_num_gpus(); __g++)
            main_L13<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(pos, acc, acc_layout(__g), acc_lo(__g), acc_hi(__g));
        acc_comm_sync(); /* inter-GPU communication manager */
    acc_data_exit();
}
//// examples/testdata/dotprod.c
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L14: parallel loop at line 14
 * array configuration information:
 *   x            distribution-based placement (localaccess), read
 *   y            distribution-based placement (localaccess), read
 * scalar reductions: +:dot
 * coalescing efficiency: 1.00 (baseline 1.00)
 */
__global__ void main_L14(float *x, float *y, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    dot += (ACC_LOAD(x, i) * ACC_LOAD(y, i));
}

void main(void) {
    int i;
    dot = 0.0;
    acc_load(x, y); /* data loader: replica/distribution policies */
    for (int __g = 0; __g < acc_num_gpus(); __g++)
        main_L14<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(x, y, acc_layout(__g), acc_lo(__g), acc_hi(__g));
    acc_comm_sync(); /* inter-GPU communication manager */
}
//// examples/testdata/histogram.c
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L14: parallel loop at line 14
 * array configuration information:
 *   data         replica-based placement, read
 *   hist         reductiontoarray(+), hierarchical lanes
 * coalescing efficiency: 0.90 (baseline 0.90)
 */
__global__ void main_L14(int *data, int *hist, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    int b;
    b = (((ACC_LOAD(data, i) % k) + k) % k);
    ACC_REDUCE(hist, b, +, 1);
}

void main(void) {
    int i;
    acc_data_enter(); /* acc data copyin(data) copy(hist) */
        acc_load(data, hist); /* data loader: replica/distribution policies */
        for (int __g = 0; __g < acc_num_gpus(); __g++)
            main_L14<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(data, hist, acc_layout(__g), acc_lo(__g), acc_hi(__g));
        acc_comm_sync(); /* inter-GPU communication manager */
    acc_data_exit();
}
//// examples/testdata/saxpy.c
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L16: parallel loop at line 16
 * array configuration information:
 *   x            distribution-based placement (localaccess), read
 *   y            distribution-based placement (localaccess), read, written (miss check elided: statically in range)
 * coalescing efficiency: 1.00 (baseline 1.00)
 */
__global__ void main_L16(float *x, float *y, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    ACC_STORE(y, i, ((a * ACC_LOAD(x, i)) + ACC_LOAD(y, i)));
}

void main(void) {
    int i;
    acc_data_enter(); /* acc data copyin(x) copy(y) */
        acc_load(x, y); /* data loader: replica/distribution policies */
        for (int __g = 0; __g < acc_num_gpus(); __g++)
            main_L16<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(x, y, acc_layout(__g), acc_lo(__g), acc_hi(__g));
        acc_comm_sync(); /* inter-GPU communication manager */
    acc_data_exit();
}
//// unicode
/* Generated by the accmulti translator (multi-GPU OpenACC).
 * ACC_LOAD/ACC_STORE expand to local-layout index rewriting;
 * ACC_STORE additionally sets the two-level dirty bits on
 * replicated arrays and performs the write-miss check on
 * distributed arrays (elided when statically in range).
 * ACC_REDUCE accumulates into the hierarchical reduction lanes.
 */

/* kernel main_L14: parallel loop at line 14
 * array configuration information:
 *   ªµ           replica-based placement, read, indirect reads
 *   êõ           replica-based placement, read, written (two-level dirty bits)
 *   a_name_longer_than_twelve replica-based placement, written (two-level dirty bits)
 *   idx          replica-based placement, read
 * scalar reductions: max:top
 * coalescing efficiency: 0.70 (baseline 0.70)
 */
__global__ void main_L14(float *ªµ, float *êõ, float *a_name_longer_than_twelve, int *idx, acc_layout_t __layout, long __lo, long __hi) {
    long i = __lo + (long)blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= __hi) return;
    float t;
    t = ((((float)(ACC_LOAD(ªµ, ACC_LOAD(idx, i))) * 1e-05) + 1e+08) - 2.5e+20);
    if (((t > 0.5) && !(((i % 2) == 0)))) {
        ACC_STORE(êõ, i, ((t > 1.0) ? sqrt(fabs(t)) : -(t))); /* + dirty bits */
    } else {
        ACC_STORE(êõ, i, ACC_LOAD(êõ, i) - (double)(~(i))); /* + dirty bits */
    }
    ACC_STORE(a_name_longer_than_twelve, i, 3.0); /* + dirty bits */
    top = max(top, t);
}

void main(void) {
    int i;
    int j;
    top = 0.0;
    d = 1.5e-07;
    acc_data_enter(); /* acc data copyin(ªµ, idx) copy(êõ, a_name_longer_than_twelve) */
        acc_load(ªµ, êõ, a_name_longer_than_twelve, idx); /* data loader: replica/distribution policies */
        for (int __g = 0; __g < acc_num_gpus(); __g++)
            main_L14<<<acc_grid(__g), acc_block(__g), 0, acc_stream(__g)>>>(ªµ, êõ, a_name_longer_than_twelve, idx, acc_layout(__g), acc_lo(__g), acc_hi(__g));
        acc_comm_sync(); /* inter-GPU communication manager */
        j = 0;
        while ((j < m)) {
            j += 1;
            if ((j > 3)) {
                break;
            } else {
                continue;
            }
        }
        acc_update(); /* acc update host(êõ) */
    acc_data_exit();
}
