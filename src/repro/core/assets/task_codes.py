"""Producer task codes: plain bases and per-system reference annotations.

The C producer emulates an HPC simulation (random array per step, local
and global sums via MPI) and matches the structure of the paper's Table 4
listings.  The Python producer is the equivalent used for PyCOMPSs and
Parsl.  Reference annotations are written against the *real* systems'
APIs — they are the ground truth of the similarity metrics and validators.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.utils.text import dedent_strip

# ---------------------------------------------------------------------------
# Plain producers (inputs to the annotation experiment)
# ---------------------------------------------------------------------------

BASE_PRODUCER_C = dedent_strip(
    """
    #include <stdio.h>
    #include <stdlib.h>
    #include <unistd.h>
    #include <time.h>
    #include <mpi.h>

    int main(int argc, char** argv)
    {
        MPI_Init(&argc, &argv);
        int rank, size;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);

        size_t n = 50;
        if (argc > 1) n = atoi(argv[1]);
        if (rank == 0) printf("Using %zu random numbers\\n", n);

        int iterations = 3;
        if (argc > 2) iterations = atoi(argv[2]);

        int sleep_interval = 0;
        if (argc > 3) sleep_interval = atoi(argv[3]);

        srand(time(NULL) + rank);

        /* workflow system: initialization goes here */

        int t;
        for (t = 0; t < iterations; ++t) {
            if (sleep_interval) sleep(sleep_interval);

            float* array = (float*) malloc(n * sizeof(float));
            size_t i;
            for (i = 0; i < n; ++i) array[i] = (float) rand() / (float) RAND_MAX;

            float sum = 0;
            for (i = 0; i < n; ++i) sum += array[i];
            printf("[%d] Simulation [t=%d]: sum = %f\\n", rank, t, sum);

            float total_sum;
            MPI_Reduce(&sum, &total_sum, 1, MPI_FLOAT, MPI_SUM, 0, MPI_COMM_WORLD);
            if (rank == 0)
                printf("[%d] Simulation [t=%d]: total_sum = %f\\n", rank, t, total_sum);

            /* workflow system: publish array and t here */

            free(array);
        }

        /* workflow system: cleanup goes here */

        MPI_Finalize();
        return 0;
    }
    """
)

BASE_PRODUCER_PY = dedent_strip(
    '''
    import sys
    import time

    import numpy as np


    def simulate_step(n, t):
        """One simulation step: a fresh random array and its checksum."""
        rng = np.random.default_rng(t)
        array = rng.random(n).astype("float32")
        return array, float(array.sum())


    def main(argv):
        n = int(argv[1]) if len(argv) > 1 else 50
        iterations = int(argv[2]) if len(argv) > 2 else 3
        sleep_interval = int(argv[3]) if len(argv) > 3 else 0
        print(f"Using {n} random numbers")

        total = 0.0
        for t in range(iterations):
            if sleep_interval:
                time.sleep(sleep_interval)
            # workflow system: publish the array produced below
            array, checksum = simulate_step(n, t)
            print(f"Simulation [t={t}]: sum = {checksum}")
            total += checksum
        # workflow system: synchronize before reporting
        print(f"Simulation total_sum = {total}")


    if __name__ == "__main__":
        main(sys.argv)
    '''
)

# ---------------------------------------------------------------------------
# ADIOS2 reference annotation (C)
# ---------------------------------------------------------------------------

ADIOS2_PRODUCER_C = dedent_strip(
    """
    #include <stdio.h>
    #include <stdlib.h>
    #include <unistd.h>
    #include <time.h>
    #include <mpi.h>
    #include <adios2_c.h>

    int main(int argc, char** argv)
    {
        MPI_Init(&argc, &argv);
        int rank, size;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);

        size_t n = 50;
        if (argc > 1) n = atoi(argv[1]);
        if (rank == 0) printf("Using %zu random numbers\\n", n);

        int iterations = 3;
        if (argc > 2) iterations = atoi(argv[2]);

        int sleep_interval = 0;
        if (argc > 3) sleep_interval = atoi(argv[3]);

        srand(time(NULL) + rank);

        adios2_adios* adios = adios2_init(MPI_COMM_WORLD);
        adios2_io* io = adios2_declare_io(adios, "SimulationOutput");

        size_t shape[2], start[2], count[2];
        shape[0] = (size_t) size; shape[1] = n;
        start[0] = (size_t) rank; start[1] = 0;
        count[0] = 1;             count[1] = n;
        adios2_variable* var_array = adios2_define_variable(
            io, "array", adios2_type_float, 2, shape, start, count,
            adios2_constant_dims_true);
        adios2_variable* var_t = adios2_define_variable(
            io, "t", adios2_type_int32_t, 0, NULL, NULL, NULL,
            adios2_constant_dims_true);

        adios2_engine* engine = adios2_open(io, "output.bp", adios2_mode_write);

        int t;
        for (t = 0; t < iterations; ++t) {
            if (sleep_interval) sleep(sleep_interval);

            float* array = (float*) malloc(n * sizeof(float));
            size_t i;
            for (i = 0; i < n; ++i) array[i] = (float) rand() / (float) RAND_MAX;

            float sum = 0;
            for (i = 0; i < n; ++i) sum += array[i];
            printf("[%d] Simulation [t=%d]: sum = %f\\n", rank, t, sum);

            float total_sum;
            MPI_Reduce(&sum, &total_sum, 1, MPI_FLOAT, MPI_SUM, 0, MPI_COMM_WORLD);
            if (rank == 0)
                printf("[%d] Simulation [t=%d]: total_sum = %f\\n", rank, t, total_sum);

            adios2_step_status status;
            adios2_begin_step(engine, adios2_step_mode_append, -1.0f, &status);
            adios2_put(engine, var_array, array, adios2_mode_sync);
            adios2_put(engine, var_t, &t, adios2_mode_sync);
            adios2_end_step(engine);

            free(array);
        }

        adios2_close(engine);
        adios2_finalize(adios);

        MPI_Finalize();
        return 0;
    }
    """
)

# ---------------------------------------------------------------------------
# Henson reference annotation (C)
# ---------------------------------------------------------------------------

HENSON_PRODUCER_C = dedent_strip(
    """
    #include <stdio.h>
    #include <stdlib.h>
    #include <unistd.h>
    #include <time.h>
    #include <mpi.h>
    #include <henson/context.h>
    #include <henson/data.h>

    int main(int argc, char** argv)
    {
        /* MPI is initialized by the Henson runtime; puppets just query it */
        int rank, size;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);

        size_t n = 50;
        if (argc > 1) n = atoi(argv[1]);
        if (rank == 0) printf("Using %zu random numbers\\n", n);

        int sleep_interval = 0;
        if (argc > 2) sleep_interval = atoi(argv[2]);

        srand(time(NULL) + rank);

        int t = 0;
        while (henson_active())
        {
            if (sleep_interval) sleep(sleep_interval);

            float* array = (float*) malloc(n * sizeof(float));
            size_t i;
            for (i = 0; i < n; ++i) array[i] = (float) rand() / (float) RAND_MAX;

            float sum = 0;
            for (i = 0; i < n; ++i) sum += array[i];
            printf("[%d] Simulation [t=%d]: sum = %f\\n", rank, t, sum);

            float total_sum;
            MPI_Reduce(&sum, &total_sum, 1, MPI_FLOAT, MPI_SUM, 0, MPI_COMM_WORLD);
            if (rank == 0)
                printf("[%d] Simulation [t=%d]: total_sum = %f\\n", rank, t, total_sum);

            henson_save_array("array", array, sizeof(float), n, sizeof(float));
            henson_save_int("t", t);

            henson_yield();

            free(array);
            t++;
        }

        return 0;
    }
    """
)

# ---------------------------------------------------------------------------
# Parsl reference annotation (Python)
# ---------------------------------------------------------------------------

PARSL_PRODUCER_PY = dedent_strip(
    '''
    import sys
    import time

    import numpy as np
    import parsl
    from parsl import python_app
    from parsl.data_provider.files import File


    @python_app
    def simulate_step(n, t, outputs=()):
        """One simulation step as a Parsl app: writes the array, returns its sum."""
        import numpy as np
        rng = np.random.default_rng(t)
        array = rng.random(n).astype("float32")
        np.save(outputs[0].filepath, array)
        return float(array.sum())


    def main(argv):
        n = int(argv[1]) if len(argv) > 1 else 50
        iterations = int(argv[2]) if len(argv) > 2 else 3
        sleep_interval = int(argv[3]) if len(argv) > 3 else 0
        print(f"Using {n} random numbers")

        parsl.load()

        futures = []
        for t in range(iterations):
            if sleep_interval:
                time.sleep(sleep_interval)
            out = File(f"array_{t}.npy")
            futures.append(simulate_step(n, t, outputs=[out]))

        total = sum(future.result() for future in futures)
        print(f"Simulation total_sum = {total}")

        parsl.clear()


    if __name__ == "__main__":
        main(sys.argv)
    '''
)

# ---------------------------------------------------------------------------
# PyCOMPSs reference annotation (Python)
# ---------------------------------------------------------------------------

PYCOMPSS_PRODUCER_PY = dedent_strip(
    '''
    import sys
    import time

    import numpy as np
    from pycompss.api.task import task
    from pycompss.api.parameter import FILE_OUT
    from pycompss.api.api import compss_wait_on, compss_wait_on_file


    @task(fname=FILE_OUT, returns=float)
    def simulate_step(n, t, fname):
        """One simulation step as a PyCOMPSs task: writes the array to fname."""
        import numpy as np
        rng = np.random.default_rng(t)
        array = rng.random(n).astype("float32")
        np.save(fname, array)
        return float(array.sum())


    def main(argv):
        n = int(argv[1]) if len(argv) > 1 else 50
        iterations = int(argv[2]) if len(argv) > 2 else 3
        sleep_interval = int(argv[3]) if len(argv) > 3 else 0
        print(f"Using {n} random numbers")

        sums = []
        for t in range(iterations):
            if sleep_interval:
                time.sleep(sleep_interval)
            sums.append(simulate_step(n, t, f"array_{t}.npy"))

        sums = compss_wait_on(sums)
        for t in range(iterations):
            compss_wait_on_file(f"array_{t}.npy")
        print(f"Simulation total_sum = {sum(sums)}")


    if __name__ == "__main__":
        main(sys.argv)
    '''
)

_BASES = {"c": BASE_PRODUCER_C, "python": BASE_PRODUCER_PY}

_ANNOTATED = {
    "adios2": ADIOS2_PRODUCER_C,
    "henson": HENSON_PRODUCER_C,
    "parsl": PARSL_PRODUCER_PY,
    "pycompss": PYCOMPSS_PRODUCER_PY,
}


def base_producer(language: str) -> str:
    """The plain producer task code in ``language`` (``c`` or ``python``)."""
    try:
        return _BASES[language.lower()]
    except KeyError:
        raise ConfigError(f"no base producer for language {language!r}") from None


def annotated_producer(system: str) -> str:
    """The reference annotated producer for ``system``."""
    try:
        return _ANNOTATED[system.lower()]
    except KeyError:
        raise ConfigError(
            f"no annotated producer for system {system!r} "
            f"(annotation experiment covers {sorted(_ANNOTATED)})"
        ) from None
